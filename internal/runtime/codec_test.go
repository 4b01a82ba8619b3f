package runtime_test

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
	"github.com/hetgc/hetgc/internal/transport"
)

// trainWire runs a small churn-free loopback cluster of n workers under the
// given root codec and returns the final parameters. The workers are
// ElasticWorkers, or with scripted testkit's scripted protocol workers: a
// bare join request for a hello, then honest coded gradients in the codec
// the root acked, one plain Send each. Replans are disabled and s=0 means
// every iteration decodes from ALL workers — Collect returns on the first
// decodable subset, so any straggler tolerance would let scheduling jitter
// pick different subsets (and different float summation) across two
// otherwise identical runs.
func trainWire(t *testing.T, f *testkit.Fixture, codec string, n int, scripted bool) []float64 {
	t.Helper()
	const s, iters = 0, 8
	cfg := elasticConfig(f, s, iters)
	cfg.MinWorkers = n
	cfg.DriftThreshold = 1e9
	cfg.CooldownIters = 1 << 30
	cfg.LossEvery = 0
	cfg.LossFn = nil
	cfg.Wire = clustercfg.WireConfig{Codec: codec}
	dialled := n
	if scripted {
		dialled = 0
	}
	l := testkit.Start(t, f, cfg, dialled, nil)
	var wg sync.WaitGroup
	if scripted {
		var progress atomic.Int64
		testkit.DriveWorkers(&testkit.Scenario{}, l.Addrs(n), f, &wg, &progress)
	}
	res, err := l.Run(5 * time.Second)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res.Params
}

// TestElasticCodecInt8Negotiated proves the lossy path end to end: a master
// set to int8 names it in every hello ack, the uploads travel
// quantized (visible in the per-codec wire counters), and training still
// converges to a sane model.
func TestElasticCodecInt8Negotiated(t *testing.T) {
	f := newFixture(t, 4)
	_, _, _, beforeOut := transport.WireCodec(byte(grad.CodecInt8))
	params := trainWire(t, f, "int8", 3, false)
	_, _, _, afterOut := transport.WireCodec(byte(grad.CodecInt8))
	if afterOut <= beforeOut {
		t.Fatalf("no int8 gradient bytes on the wire (out: %d -> %d)", beforeOut, afterOut)
	}
	loss, err := ml.MeanLoss(f.Model, params, f.Data)
	if err != nil {
		t.Fatal(err)
	}
	initLoss, err := ml.MeanLoss(f.Model, f.Model.InitParams(nil), f.Data)
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
	f := newFixture(t, 4)
	const s, iters, workers = 1, 30, 3
	cfg := elasticConfig(f, s, iters)
	cfg.MinWorkers = workers
	cfg.DriftThreshold = 1e9
	cfg.CooldownIters = 1 << 30
	cfg.LossEvery, cfg.LossFn = 0, nil
	cfg.Wire = clustercfg.WireConfig{Codec: "int8"}
	_, _, _, before := transport.WireCodec(byte(grad.CodecInt8))
	res, err := testkit.Start(t, f, cfg, workers, func(i int, wc *runtime.ElasticWorkerConfig) {
		if i == 0 {
			wc.Model = nanModel{f.Model}
			return
		}
		testkit.PerPart(5*time.Millisecond)(i, wc)
	}).Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, after := transport.WireCodec(byte(grad.CodecInt8)); after <= before {
		t.Fatalf("no int8 gradient bytes on the wire (out: %d -> %d)", before, after)
	}
	if res.Groups[0].MalformedSkipped == 0 {
		t.Fatal("the poisoned int8 uploads were not counted as malformed")
	}
	if len(res.Params) != f.Model.Dim() || grad.InfOrNaN(res.Params) {
		t.Fatalf("final params %v: want %d finite values", res.Params, f.Model.Dim())
	}
}

// TestElasticCodecRootDecides: the root picks the codec and the hello ack
// names it. Scripted workers whose hello carries no codec advertisement
// upload int8 under an int8 root, and the run ends on finite parameters.
func TestElasticCodecRootDecides(t *testing.T) {
	f := newFixture(t, 4)
	before, _, _, _ := transport.WireCodec(byte(grad.CodecInt8))
	params := trainWire(t, f, "int8", 3, true)
	if after, _, _, _ := transport.WireCodec(byte(grad.CodecInt8)); after <= before {
		t.Fatalf("bare-hello workers uploaded no int8 gradient under an int8 root (frames in: %d -> %d)", before, after)
	}
	if len(params) != f.Model.Dim() || grad.InfOrNaN(params) {
		t.Fatalf("final params %v: want %d finite values", params, f.Model.Dim())
	}
}

// TestVectorsNeverRideGob is the wire-size acceptance test: on a loopback
// cluster at dim 1e4 the bytes written per iteration stay within 2 % of the
// bare payload — 8 B per float, one params frame down and one gradient up per
// worker — so framing, the control messages and the hello cost next to
// nothing beside the vectors. (The name recalls the gob envelopes the frame
// replaced, which spent about 9 B per float.) It holds for ElasticWorkers and
// for scripted workers (testkit.DriveWorkers) whose hello is bare alike — the
// frame is not negotiated, it is the encoding — and at s=0 both clusters end
// on bit-identical parameters.
func TestVectorsNeverRideGob(t *testing.T) {
	const k, workers, iters = 4, 4, 8
	model := &ml.Softmax{InputDim: 999, NumClasses: 10} // dim 1e4
	data, err := ml.GaussianMixture(k*4, model.InputDim, model.NumClasses, 3, rand.New(rand.NewSource(301)))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Split(k)
	if err != nil {
		t.Fatal(err)
	}
	f := &testkit.Fixture{Model: model, Data: data, Parts: parts}
	payload := uint64(8 * model.Dim() * 2 * workers * iters)
	limit := payload + payload/50
	run := func(name string, scripted bool) []float64 {
		_, _, _, before, _, _ := transport.Wire()
		params := trainWire(t, f, "", workers, scripted)
		_, _, _, after, _, _ := transport.Wire()
		if after-before > limit {
			t.Fatalf("%s cluster wrote %d B for a %d B payload (limit %d): a vector rode gob", name, after-before, payload, limit)
		}
		t.Logf("%s: payload %d B, wire %d B (%.3fx)", name, payload, after-before, float64(after-before)/float64(payload))
		return params
	}
	dialed, scripted := run("ElasticWorker", false), run("scripted", true)
	for i := range dialed {
		if dialed[i] != scripted[i] {
			t.Fatalf("param %d differs between the ElasticWorker and the scripted run: %v vs %v", i, dialed[i], scripted[i])
		}
	}
}

// TestElasticCodecConfigRejected pins the config error for an unknown codec
// name.
func TestElasticCodecConfigRejected(t *testing.T) {
	f := newFixture(t, 4)
	cfg := elasticConfig(f, 1, 1)
	cfg.Wire.Codec = "zstd"
	if _, err := testkit.Open(f, cfg); err == nil {
		t.Fatal("unknown codec accepted")
	}
}
