package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/straggler"
)

func shardedChurnConfig(seed int64) ElasticSimConfig {
	rates := make([]float64, 20)
	for i := range rates {
		rates[i] = 100
	}
	return ElasticSimConfig{
		K: 40, S: 1, GroupSize: 5,
		InitialRates: rates, Estimates: rates,
		Events: []ChurnEvent{
			{Iter: 8, Kind: SpeedStep, Member: 3, Factor: 0.1},
			{Iter: 16, Kind: Kill, Member: 7},
			{Iter: 20, Kind: Join, Rate: 100},
			{Iter: 24, Kind: Rejoin, Member: 7},
		},
		Iterations:      32,
		Alpha:           0.5,
		DriftThreshold:  0.4,
		MinObservations: 2,
		CooldownIters:   3,
		Injector:        straggler.Fixed{Count: 1, Delay: 2},
		Seed:            seed,
	}
}

func TestShardedSimDeterministic(t *testing.T) {
	a, err := RunElastic(shardedChurnConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunElastic(shardedChurnConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Times, b.Times) {
		t.Fatal("iteration times differ between identically-seeded runs")
	}
	if !reflect.DeepEqual(a.Epochs, b.Epochs) {
		t.Fatal("epoch traces differ between identically-seeded runs")
	}
	if !reflect.DeepEqual(a.Replans, b.Replans) {
		t.Fatal("replan histories differ between identically-seeded runs")
	}
	if !reflect.DeepEqual(a.GroupTimes, b.GroupTimes) {
		t.Fatal("group time traces differ between identically-seeded runs")
	}
}

// TestShardedSimGroupLocalReplanning is the epoch-fencing contract: churn
// and drift replan only the group they happen in.
func TestShardedSimGroupLocalReplanning(t *testing.T) {
	cfg := shardedChurnConfig(5)
	cfg.Injector = nil // isolate the scheduled events
	res, err := RunElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups < 2 {
		t.Fatalf("want ≥ 2 groups, got %d", res.Groups)
	}

	// Every group replans once at iteration 0 ("initial", epoch 0). After
	// that, only the groups hit by events migrate: epochs must not advance
	// in lockstep across groups.
	last := res.Epochs[len(res.Epochs)-1]
	moved, stayed := 0, 0
	for _, e := range last {
		if e > 0 {
			moved++
		} else {
			stayed++
		}
	}
	if moved == 0 {
		t.Fatal("no group ever migrated despite speed-step/kill/join/rejoin churn")
	}
	if stayed == 0 {
		t.Fatalf("every group migrated (final epochs %v) — replanning is not group-local", last)
	}

	// The kill at iteration 16 is exactly one churn replan, of the owner.
	// Another group may migrate at the same boundary only on a trigger of
	// its own — member 3's group is still following its 10x slowdown, which
	// the meter's clip has it learn a halving per sample, a drift replan per
	// cooldown — so an epoch moves across the boundary if and only if that
	// group has a replan event there.
	at16 := map[int]string{}
	churn := 0
	for _, ev := range res.Replans {
		if ev.Iter == 16 {
			at16[ev.Group] = ev.Reason
			if ev.Reason == "churn" {
				churn++
			}
		}
	}
	if churn != 1 {
		t.Fatalf("kill at iter 16 caused %d churn replans (%v), want exactly 1", churn, at16)
	}
	for g := range last {
		if bumped := res.Epochs[16][g] > res.Epochs[15][g]; bumped != (at16[g] != "") {
			t.Fatalf("group %d: epoch bumped across iter 16 = %v, its replan there = %q", g, bumped, at16[g])
		}
	}

	// Replan events carry group indices; non-initial events must touch a
	// strict subset of groups.
	nonInitial := map[int]bool{}
	for _, ev := range res.Replans {
		if ev.Reason != "initial" {
			nonInitial[ev.Group] = true
		}
	}
	if len(nonInitial) == 0 || len(nonInitial) >= res.Groups {
		t.Fatalf("non-initial replans touched %d of %d groups, want a strict non-empty subset", len(nonInitial), res.Groups)
	}
}

// shardedAt200 is the 200-worker comparison fixture: uniform fleet with a
// realistic per-upload master ingest cost. GroupSize 200 degenerates to the
// flat runtime (one group, one master ingesting all 200 uploads, no tree),
// so flat and sharded run the exact same simulation code.
func shardedAt200(groupSize int) ElasticSimConfig {
	rates := make([]float64, 200)
	for i := range rates {
		rates[i] = 100 // global partitions/second
	}
	return ElasticSimConfig{
		K: 400, S: 1, GroupSize: groupSize, FanIn: 4,
		InitialRates:  rates,
		Estimates:     rates,
		Iterations:    25,
		IngestSeconds: 0.002, // 2ms to receive+decode one gradient upload
		HopSeconds:    0.005, // one reduction-tree hop
		Seed:          7,
	}
}

// TestShardedBeatsFlatAt200Workers is the scale-out acceptance bar: at 200
// simulated workers, the hierarchical runtime must finish iterations at
// least 2x faster than the flat single-master runtime. The flat master is
// serialised behind ingesting all 200 uploads on one path; group masters
// ingest ~10 each in parallel and the reduction tree pays at most
// FanIn coalesced (batched) frames per hop.
func TestShardedBeatsFlatAt200Workers(t *testing.T) {
	sharded, err := RunElastic(shardedAt200(10))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := RunElastic(shardedAt200(200))
	if err != nil {
		t.Fatal(err)
	}
	if flat.Groups != 1 || flat.Depth != 0 {
		t.Fatalf("flat baseline not flat: %d groups, depth %d", flat.Groups, flat.Depth)
	}
	if sharded.Groups != 20 {
		t.Fatalf("sharded run has %d groups, want 20", sharded.Groups)
	}

	flatMean := flat.Summary.Mean
	shardMean := sharded.Summary.Mean
	t.Logf("flat mean %.4fs, sharded mean %.4fs (%.1fx)", flatMean, shardMean, flatMean/shardMean)
	// Typical ratio is ~4-5x; the acceptance bar is 2x with generous margin.
	if flatMean < 2*shardMean {
		t.Fatalf("sharded not ≥2x faster at 200 workers: flat %.4fs vs sharded %.4fs", flatMean, shardMean)
	}

	// Determinism at scale: the comparison is reproducible bit-for-bit.
	again, err := RunElastic(shardedAt200(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded.Times, again.Times) {
		t.Fatal("sharded run not bit-identical across replays")
	}
}

func TestShardedSimHopLatencyAndOverhead(t *testing.T) {
	rates := make([]float64, 40)
	for i := range rates {
		rates[i] = 100
	}
	base := ElasticSimConfig{
		K: 80, S: 1, GroupSize: 10, FanIn: 2,
		InitialRates: rates, Estimates: rates, Iterations: 4, Seed: 11,
	}
	noCost, err := RunElastic(base)
	if err != nil {
		t.Fatal(err)
	}
	withCost := base
	withCost.HopSeconds = 0.1
	withCost.CommOverhead = 0.3
	costly, err := RunElastic(withCost)
	if err != nil {
		t.Fatal(err)
	}
	if noCost.Depth != 2 { // 4 groups, fan-in 2 → 2 hops
		t.Fatalf("depth = %d, want 2", noCost.Depth)
	}
	wantExtra := 2*0.1 + 0.3
	for i := range noCost.Times {
		got := costly.Times[i] - noCost.Times[i]
		if math.Abs(got-wantExtra) > 1e-9 {
			t.Fatalf("iter %d: hop+comm surcharge %.4f, want %.4f", i, got, wantExtra)
		}
	}
}

func TestShardedSimRejectsBadConfig(t *testing.T) {
	rates := []float64{100, 100, 100}
	cases := []ElasticSimConfig{
		{K: 4, S: 1, Iterations: 3},                                        // no members
		{K: 4, S: 1, InitialRates: rates},                                  // no iterations
		{K: 4, S: 1, InitialRates: rates, Iterations: 3, CommOverhead: -1}, // negative comm
		{K: 4, S: 1, InitialRates: rates, Iterations: 3, HopSeconds: -0.1}, // negative hop
		{K: 0, S: 1, InitialRates: rates, Iterations: 3},                   // bad k
		{K: 4, S: 1, InitialRates: []float64{1, -1, 1}, Iterations: 3},     // bad rate
		{K: 4, S: 3, InitialRates: rates, Iterations: 3},                   // m < s+1
	}
	for i, cfg := range cases {
		if _, err := RunElastic(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}

	// Churn schedule errors.
	bad := []ChurnEvent{{Iter: 0, Kind: Kill, Member: 99}}
	cfg := ElasticSimConfig{K: 4, S: 1, InitialRates: rates, Iterations: 3, Events: bad}
	if _, err := RunElastic(cfg); err == nil {
		t.Fatal("kill of unknown member: expected error")
	}
}

// TestShardedSimRefusesFixedShape: a group holds k_g partitions by capacity
// (6 for 3 equal workers at K = 12 and GroupSize 3), while a fixed-shape code
// needs one alive member per partition, so the run is refused before its
// first iteration instead of failing there.
func TestShardedSimRefusesFixedShape(t *testing.T) {
	rates := []float64{100, 100, 100, 100, 100, 100}
	for _, kind := range []core.Kind{core.Naive, core.Cyclic, core.FractionalRepetition} {
		cfg := ElasticSimConfig{K: 12, S: 1, GroupSize: 3, Scheme: kind, InitialRates: rates, Iterations: 3}
		if _, err := RunElastic(cfg); !errors.Is(err, ErrBadChurn) {
			t.Fatalf("%v: err = %v, want ErrBadChurn", kind, err)
		}
	}
}

// TestShardedSimUndecodableGroupFails: a group that cannot decode is a
// straggler outcome, not a bad config. Both groups here lose two of their
// three members for good (GroupSize 3 deals workers 0, 3, 4 and 1, 2, 5), so
// every iteration fails, exactly as the same fleet's flat run does.
func TestShardedSimUndecodableGroupFails(t *testing.T) {
	rates := []float64{100, 100, 100, 100, 100, 100}
	inf := math.Inf(1)
	for groupSize, groups := range map[int]int{3: 2, 0: 1} {
		cfg := ElasticSimConfig{
			K: 12, S: 1, GroupSize: groupSize,
			InitialRates: rates, Estimates: rates, Iterations: 3,
			Injector: straggler.Pinned{Workers: []int{0, 1, 2, 3}, Delay: inf},
		}
		res, err := RunElastic(cfg)
		if err != nil {
			t.Fatalf("group size %d: %v", groupSize, err)
		}
		if res.Groups != groups || !reflect.DeepEqual(res.Times, []float64{inf, inf, inf}) || res.Failed != 3 {
			t.Fatalf("group size %d: %d groups, times %v, failed %d: want %d, +Inf each and 3",
				groupSize, res.Groups, res.Times, res.Failed, groups)
		}
	}
}
