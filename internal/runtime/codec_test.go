package runtime

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/transport"
)

// runElasticWithCodec runs a small churn-free loopback cluster under the
// given master codec preference and returns the final parameters. Replans are
// disabled, workers dial sequentially, and s=0 means every iteration decodes
// from ALL workers — Collect returns on the first decodable subset, so any
// straggler tolerance would let scheduling jitter pick different subsets
// (and different float summation) across two otherwise identical runs.
func runElasticWithCodec(t *testing.T, f *elasticFixture, codec string, workerCodecs []byte) []float64 {
	t.Helper()
	return runElasticCluster(t, f, codec, workerCodecs, 3, 0)
}

// runElasticCluster is runElasticWithCodec with the cluster shape exposed:
// the first preFrame of the workers are dialPreFrameWorker peers — builds
// from before the vector frame, served gob in both directions.
func runElasticCluster(t *testing.T, f *elasticFixture, codec string, workerCodecs []byte, workers, preFrame int) []float64 {
	t.Helper()
	const k, s, iters = 4, 0, 8
	cfg := f.masterConfig(k, s, iters)
	cfg.MinWorkers = workers
	cfg.DriftThreshold = 1e9
	cfg.CooldownIters = 1 << 30
	cfg.LossEvery = 0
	cfg.LossFn = nil
	cfg.Wire = clustercfg.WireConfig{Codec: codec}
	master, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		var run func() error
		if i < preFrame {
			run = f.dialPreFrameWorker(t, master.Addr())
		} else {
			w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
				Model:         f.model,
				PartitionData: func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
				Codecs:        workerCodecs,
			})
			if err != nil {
				t.Fatal(err)
			}
			run = w.Run
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = run()
		}()
	}
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := master.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res.Params
}

// dialPreFrameWorker joins addr the way a build from before the vector frame
// does, scripted over a bare connection: the hello advertises every codec but
// names no capability — the field did not exist — so nothing on this
// connection may arrive or leave as a vector frame. The returned loop uploads
// honest coded gradients (the kernel real workers use) under the codec the
// master acked, until shutdown.
func (f *elasticFixture) dialPreFrameWorker(t *testing.T, addr string) (run func() error) {
	t.Helper()
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker, Codecs: grad.AdvertiseCodecs()}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil || ack.Type != transport.MsgHello {
		t.Fatalf("hello ack: %+v, %v", ack, err)
	}
	if ack.Caps != 0 {
		t.Fatalf("the master acked capabilities %#x the hello did not name", ack.Caps)
	}
	codec := grad.Codec(ack.Codec)
	return func() error {
		defer conn.Close()
		var assign *transport.Assignment
		epoch := 0
		for {
			env, err := conn.Recv()
			if err != nil {
				return err
			}
			switch env.Type {
			case transport.MsgShutdown:
				return nil
			case transport.MsgReassign:
				assign, epoch = env.Assign, env.Epoch
			case transport.MsgParams:
				if assign == nil || env.Epoch != epoch {
					continue
				}
				vec, err := codedGradient(f.model, f.parts, assign, env.Vector)
				if err != nil {
					return err
				}
				out := &transport.Envelope{Type: transport.MsgGradient, Iter: env.Iter, Epoch: epoch, WorkerID: ack.WorkerID, RootGen: env.RootGen}
				if codec == grad.CodecRaw {
					out.Vector = vec
				} else {
					q, err := grad.AppendQuantized(nil, codec, vec)
					if err != nil {
						return err
					}
					out.Codec, out.Quant, out.QuantLen = byte(codec), q, len(vec)
				}
				if err := conn.Send(out); err != nil {
					return err
				}
				tel := &transport.Envelope{
					Type: transport.MsgTelemetry, Iter: env.Iter, Epoch: epoch, WorkerID: ack.WorkerID, RootGen: env.RootGen,
					Telemetry: &transport.Telemetry{ComputeSeconds: 0.001, Partitions: len(assign.Partitions)},
				}
				if err := conn.Send(tel); err != nil {
					return err
				}
			}
		}
	}
}

// TestElasticCodecDeltaBitIdentical is the lossless acceptance criterion on a
// live loopback cluster: training under the delta codec must produce final
// parameters bit-identical to the raw float64 run.
func TestElasticCodecDeltaBitIdentical(t *testing.T) {
	f := newElasticFixture(t, 4)
	raw := runElasticWithCodec(t, f, "", nil)
	delta := runElasticWithCodec(t, f, "delta", nil)
	if len(raw) != len(delta) {
		t.Fatalf("param lengths differ: %d vs %d", len(raw), len(delta))
	}
	for i := range raw {
		if raw[i] != delta[i] {
			t.Fatalf("param %d differs under delta codec: %v vs %v", i, raw[i], delta[i])
		}
	}
}

// TestElasticCodecInt8Negotiated proves the lossy path end to end: a master
// preferring int8 negotiates it with advertising workers, the uploads travel
// quantized (visible in the per-codec wire counters), and training still
// converges to a sane model.
func TestElasticCodecInt8Negotiated(t *testing.T) {
	f := newElasticFixture(t, 4)
	_, _, _, beforeOut := transport.WireCodec(byte(grad.CodecInt8))
	params := runElasticWithCodec(t, f, "int8", nil)
	_, _, _, afterOut := transport.WireCodec(byte(grad.CodecInt8))
	if afterOut <= beforeOut {
		t.Fatalf("no int8 gradient bytes on the wire (out: %d -> %d)", beforeOut, afterOut)
	}
	loss, err := ml.MeanLoss(f.model, params, f.data)
	if err != nil {
		t.Fatal(err)
	}
	initLoss, err := ml.MeanLoss(f.model, f.model.InitParams(nil), f.data)
	if err != nil {
		t.Fatal(err)
	}
	if loss >= initLoss {
		t.Fatalf("int8 training did not improve loss: %v -> %v", initLoss, loss)
	}
}

// nanModel poisons every gradient its model computes with one NaN.
type nanModel struct{ ml.Model }

func (m nanModel) Gradient(params []float64, d *ml.Dataset) (grad.Gradient, error) {
	g, err := m.Model.Gradient(params, d)
	if err == nil {
		g[0] = math.NaN()
	}
	return g, err
}

// TestElasticCodecInt8PoisonIsMalformed: an int8 worker whose gradients hold
// a NaN uploads a chunk with a NaN scale. The master refuses it at decode
// and counts it as malformed, as it counts a raw NaN, and the other two
// workers (s = 1) carry the run to the end with finite parameters.
func TestElasticCodecInt8PoisonIsMalformed(t *testing.T) {
	f := newElasticFixture(t, 4)
	const k, s, iters, workers = 4, 1, 6, 3
	cfg := f.masterConfig(k, s, iters)
	cfg.MinWorkers = workers
	cfg.DriftThreshold = 1e9
	cfg.CooldownIters = 1 << 30
	cfg.LossEvery, cfg.LossFn = 0, nil
	cfg.Wire = clustercfg.WireConfig{Codec: "int8"}
	master, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, before := transport.WireCodec(byte(grad.CodecInt8))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		model := ml.Model(f.model)
		if i == 0 {
			model = nanModel{f.model}
		}
		w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
			Model:         model,
			PartitionData: func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run()
		}()
	}
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := master.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, after := transport.WireCodec(byte(grad.CodecInt8)); after <= before {
		t.Fatalf("no int8 gradient bytes on the wire (out: %d -> %d)", before, after)
	}
	if res.MalformedSkipped == 0 {
		t.Fatal("the poisoned int8 uploads were not counted as malformed")
	}
	if len(res.Params) != f.model.Dim() || grad.InfOrNaN(res.Params) {
		t.Fatalf("final params %v: want %d finite values", res.Params, f.model.Dim())
	}
}

// TestElasticCodecMixedVersionFallback proves interop: workers that only
// advertise raw (an un-upgraded build) keep uploading raw float64 even when
// the master prefers int8, and the run completes.
func TestElasticCodecMixedVersionFallback(t *testing.T) {
	f := newElasticFixture(t, 4)
	_, _, _, rawBefore := transport.WireCodec(byte(grad.CodecRaw))
	params := runElasticWithCodec(t, f, "int8", []byte{byte(grad.CodecRaw)})
	_, _, _, rawAfter := transport.WireCodec(byte(grad.CodecRaw))
	if rawAfter <= rawBefore {
		t.Fatalf("raw-only workers produced no raw gradient traffic (out: %d -> %d)", rawBefore, rawAfter)
	}
	if len(params) != f.model.Dim() {
		t.Fatalf("got %d params, want %d", len(params), f.model.Dim())
	}

	// The other mixed-version axis: a peer that advertises every codec but
	// not the vector frame. Codec negotiation is independent of the frame —
	// its int8 uploads ride gob envelopes next to its neighbours' vector
	// frames — and the run completes.
	_, _, _, int8Before := transport.WireCodec(byte(grad.CodecInt8))
	params = runElasticCluster(t, f, "int8", nil, 3, 1)
	_, _, _, int8After := transport.WireCodec(byte(grad.CodecInt8))
	if int8After <= int8Before {
		t.Fatalf("no int8 gradient bytes from the mixed cluster (out: %d -> %d)", int8Before, int8After)
	}
	if len(params) != f.model.Dim() {
		t.Fatalf("got %d params, want %d", len(params), f.model.Dim())
	}
}

// TestVectorsNeverRideGob is the wire-size acceptance test: on a loopback
// cluster at dim 1e4 whose workers all negotiated the vector frame, the bytes
// written per iteration stay within 2 % of the bare payload — 8 B per float,
// one params frame down and one gradient up per worker. Gob spends about 9 B
// per float, so the bound proves no dim-sized vector reached encoding/gob.
// The same cluster with pre-frame workers (dialPreFrameWorker) must exceed
// the bound — the capability really is what selects the encoding —
// and, at s=0, end on bit-identical parameters: the frame changes bytes on
// the wire, never the floats they carry.
func TestVectorsNeverRideGob(t *testing.T) {
	const k, workers, iters = 4, 4, 8
	model := &ml.Softmax{InputDim: 999, NumClasses: 10} // dim 1e4
	data, err := ml.GaussianMixture(k*4, model.InputDim, model.NumClasses, 3, rng(301))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Split(k)
	if err != nil {
		t.Fatal(err)
	}
	f := &elasticFixture{model: model, data: data, parts: parts}
	payload := uint64(8 * model.Dim() * 2 * workers * iters)
	run := func(preFrame int) (params []float64, wireBytes uint64) {
		_, _, _, before, _, _ := transport.Wire()
		params = runElasticCluster(t, f, "", nil, workers, preFrame)
		_, _, _, after, _, _ := transport.Wire()
		return params, after - before
	}
	framed, framedBytes := run(0)
	if limit := payload + payload/50; framedBytes > limit {
		t.Fatalf("negotiated cluster wrote %d B for a %d B payload (limit %d): a vector rode gob", framedBytes, payload, limit)
	}
	legacy, legacyBytes := run(workers)
	if legacyBytes <= payload+payload/50 {
		t.Fatalf("pre-frame cluster wrote only %d B for a %d B payload: it was not served gob", legacyBytes, payload)
	}
	for i := range framed {
		if framed[i] != legacy[i] {
			t.Fatalf("param %d differs between the vector-frame and the gob run: %v vs %v", i, framed[i], legacy[i])
		}
	}
	t.Logf("payload %d B; vector frames %d B (%.3fx); gob %d B (%.3fx)", payload, framedBytes, float64(framedBytes)/float64(payload), legacyBytes, float64(legacyBytes)/float64(payload))
}

// TestElasticCodecConfigRejected pins the config error for an unknown codec
// name.
func TestElasticCodecConfigRejected(t *testing.T) {
	f := newElasticFixture(t, 4)
	cfg := f.masterConfig(4, 1, 1)
	cfg.Wire.Codec = "zstd"
	if _, err := NewElasticMaster(cfg, "127.0.0.1:0"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}
