package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
)

// workload is one set of inputs the benchmark runs: a cluster shape, a model
// size and the layers it is meant to load. Every workload is a single
// process on loopback TCP with S=1, a softmax model on a seeded Gaussian
// mixture with 2 samples per partition, and a closed BSP loop (one iteration
// in flight, one client per worker).
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string

	sharded   bool
	workers   int
	k         int
	groupSize int // sharded only
	inputDim  int // model dim = classes*(inputDim+1)
	codec     string
	// durable turns on CheckpointDir + SnapshotEvery=5 + LeaseTTL=2s and makes
	// every bring-up (set-up samples and the measured run) a resume.
	durable bool
	// pinned sets DriftThreshold=1e9 so timing noise cannot trigger replans:
	// the control plane plans once (per controller) and stays there.
	pinned bool
	// partDelayMS is the per-worker sleep per assigned partition; empty means
	// none. stragglerEvery > 0 additionally makes one seeded worker sleep
	// stragglerExtra on every stragglerEvery-th iteration.
	partDelayMS    []int
	stragglerEvery int
	stragglerExtra time.Duration
	lr             float64
}

const (
	classes        = 10
	samplesPerPart = 2
	momentum       = 0.9
	snapshotEvery  = 5
	leaseTTL       = 2 * time.Second
	iterTimeout    = 30 * time.Second
	// populateIters is the length of the fresh run that fills the checkpoint
	// directory the durable workload's bring-ups resume from.
	populateIters = 20
)

// workloads is the benchmark's fixed workload table; BENCHMARK.json lists
// the same names and reasons (bench_test.go holds the two equal).
var workloads = []workload{
	{
		name:    "flat-raw",
		why:     "flat master, 4 workers, dim 1e5, raw uplink, no checkpoint: transport (gob broadcast, 800 KB gradient frames) and roster.Collect do the work; checkpoint, ha and quantization do none",
		workers: 4, k: 8, inputDim: 9999, pinned: true, lr: 2e-6,
	},
	{
		name:    "flat-int8-durable",
		why:     "same cluster, int8 uplink, journal, snapshots, lease, every bring-up a resume: grad quantization, checkpoint writes (iteration), reads (set-up) and ha are on the path; gradient bytes drop 7x",
		workers: 4, k: 8, inputDim: 9999, pinned: true, lr: 2e-6, codec: "int8", durable: true,
	},
	{
		name:    "sharded-raw",
		why:     "shard.Root, 2 groups of 3 workers, dim 1e5, raw: group-local decode, the chunked SendBatch uplink and the tree reduce do the work; transport carries batched sub-frames, not single frames",
		sharded: true, workers: 6, k: 12, groupSize: 3, inputDim: 9999, pinned: true, lr: 2e-6,
	},
	{
		name:    "hetero-straggler",
		why:     "the paper's case: 8 sleeping workers of 4 speeds, dim 1e3, a seeded 200 ms straggler every 7th iteration, drift detection on: plan quality and straggler handling set the pace, the CPU idles",
		workers: 8, k: 16, inputDim: 99, lr: 2e-4,
		partDelayMS: []int{1, 1, 2, 2, 4, 4, 8, 8}, stragglerEvery: 7, stragglerExtra: 200 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs are a workload's generated inputs for one seed: the data and the
// straggler schedule. The seed itself reaches the program only as cfg.Seed,
// its plan-construction RNG seed.
type inputs struct {
	model *ml.Softmax
	full  *ml.Dataset
	parts []*ml.Dataset
	// straggler[i] is the worker slot that sleeps stragglerExtra on the i-th
	// straggling iteration, drawn up front so a run never consults the RNG.
	straggler []int
}

// stragglerDraws bounds the pre-drawn straggler schedule; it wraps around on
// runs longer than stragglerDraws*stragglerEvery iterations.
const stragglerDraws = 4096

func makeInputs(w *workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	full, err := ml.GaussianMixture(samplesPerPart*w.k, w.inputDim, classes, 3, rng)
	if err != nil {
		return nil, err
	}
	parts, err := full.Split(w.k)
	if err != nil {
		return nil, err
	}
	in := &inputs{model: &ml.Softmax{InputDim: w.inputDim, NumClasses: classes}, full: full, parts: parts}
	if w.stragglerEvery > 0 {
		in.straggler = make([]int, stragglerDraws)
		for i := range in.straggler {
			in.straggler[i] = rng.Intn(w.workers)
		}
	}
	return in, nil
}

// extraDelay is worker slot's Delay hook: stragglerExtra when the schedule
// names this slot on a straggling iteration, zero otherwise. The straggling
// iterations are every-1, 2*every-1, ...: iteration 0 is spared, because
// whoever straggles there decides whether the first iteration waits for the
// slowest workers, and setup_s would report the draw.
func (in *inputs) extraDelay(w *workload, slot int) func(iter int) time.Duration {
	if w.stragglerEvery == 0 {
		return nil
	}
	return func(iter int) time.Duration {
		if (iter+1)%w.stragglerEvery != 0 {
			return 0
		}
		if in.straggler[(iter/w.stragglerEvery)%len(in.straggler)] == slot {
			return w.stragglerExtra
		}
		return 0
	}
}
