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
// given root codec and returns the final parameters. Replans are
// disabled, workers dial sequentially, and s=0 means every iteration decodes
// from ALL workers — Collect returns on the first decodable subset, so any
// straggler tolerance would let scheduling jitter pick different subsets
// (and different float summation) across two otherwise identical runs.
func runElasticWithCodec(t *testing.T, f *elasticFixture, codec string) []float64 {
	t.Helper()
	return runElasticCluster(t, f, codec, 3, 0)
}

// runElasticCluster is runElasticWithCodec with the cluster shape exposed:
// the first scripted of the workers are dialScriptedWorker peers.
func runElasticCluster(t *testing.T, f *elasticFixture, codec string, workers, scripted int) []float64 {
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
		if i < scripted {
			run = f.dialScriptedWorker(t, master.Addr())
		} else {
			w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
				Model:         f.model,
				PartitionData: func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
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

// dialScriptedWorker joins addr scripted over a bare connection, with
// nothing of ElasticWorker but its gradient kernel: the hello is a bare join
// request, and the returned loop uploads honest coded gradients under the
// codec the master acked, one plain Send each, until shutdown.
func (f *elasticFixture) dialScriptedWorker(t *testing.T, addr string) (run func() error) {
	t.Helper()
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil || ack.Type != transport.MsgHello {
		t.Fatalf("hello ack: %+v, %v", ack, err)
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

// TestElasticCodecInt8Negotiated proves the lossy path end to end: a master
// set to int8 names it in every hello ack, the uploads travel
// quantized (visible in the per-codec wire counters), and training still
// converges to a sane model.
func TestElasticCodecInt8Negotiated(t *testing.T) {
	f := newElasticFixture(t, 4)
	_, _, _, beforeOut := transport.WireCodec(byte(grad.CodecInt8))
	params := runElasticWithCodec(t, f, "int8")
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
// workers (s = 1) carry the run to the end with finite parameters. The two
// honest workers declare 5 ms per partition: undelayed, they could finish all
// 30 iterations before one poisoned upload reached the master.
func TestElasticCodecInt8PoisonIsMalformed(t *testing.T) {
	f := newElasticFixture(t, 4)
	const k, s, iters, workers = 4, 1, 30, 3
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
		perPart := func(int) time.Duration { return 5 * time.Millisecond }
		if i == 0 {
			model, perPart = nanModel{f.model}, nil
		}
		w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
			Model:             model,
			PartitionData:     func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
			DelayPerPartition: perPart,
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
	if res.Groups[0].MalformedSkipped == 0 {
		t.Fatal("the poisoned int8 uploads were not counted as malformed")
	}
	if len(res.Params) != f.model.Dim() || grad.InfOrNaN(res.Params) {
		t.Fatalf("final params %v: want %d finite values", res.Params, f.model.Dim())
	}
}

// TestElasticCodecRootDecides: the root picks the codec and the hello ack
// names it. Scripted workers whose hello carries no codec advertisement
// upload int8 under an int8 root, and the run ends on finite parameters.
func TestElasticCodecRootDecides(t *testing.T) {
	f := newElasticFixture(t, 4)
	before, _, _, _ := transport.WireCodec(byte(grad.CodecInt8))
	params := runElasticCluster(t, f, "int8", 3, 3)
	if after, _, _, _ := transport.WireCodec(byte(grad.CodecInt8)); after <= before {
		t.Fatalf("bare-hello workers uploaded no int8 gradient under an int8 root (frames in: %d -> %d)", before, after)
	}
	if len(params) != f.model.Dim() || grad.InfOrNaN(params) {
		t.Fatalf("final params %v: want %d finite values", params, f.model.Dim())
	}
}

// TestVectorsNeverRideGob is the wire-size acceptance test: on a loopback
// cluster at dim 1e4 the bytes written per iteration stay within 2 % of the
// bare payload — 8 B per float, one params frame down and one gradient up per
// worker — so framing, the control messages and the hello cost next to
// nothing beside the vectors. (The name recalls the gob envelopes the frame
// replaced, which spent about 9 B per float.) It holds for ElasticWorkers and
// for scripted workers (dialScriptedWorker) whose hello is bare alike — the
// frame is not negotiated, it is the encoding — and at s=0 both clusters end
// on bit-identical parameters.
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
	limit := payload + payload/50
	run := func(name string, scripted int) []float64 {
		_, _, _, before, _, _ := transport.Wire()
		params := runElasticCluster(t, f, "", workers, scripted)
		_, _, _, after, _, _ := transport.Wire()
		if after-before > limit {
			t.Fatalf("%s cluster wrote %d B for a %d B payload (limit %d): a vector rode gob", name, after-before, payload, limit)
		}
		t.Logf("%s: payload %d B, wire %d B (%.3fx)", name, payload, after-before, float64(after-before)/float64(payload))
		return params
	}
	dialed, scripted := run("ElasticWorker", 0), run("scripted", workers)
	for i := range dialed {
		if dialed[i] != scripted[i] {
			t.Fatalf("param %d differs between the ElasticWorker and the scripted run: %v vs %v", i, dialed[i], scripted[i])
		}
	}
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
