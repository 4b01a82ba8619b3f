package testkit

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Scenario is one adversarial churn script plus the invariants every
// conformant root must uphold under it. The same table drives the flat root
// (one group) and a root of several groups; each adapts itself through the
// Cluster interface.
type Scenario struct {
	// Name labels the subtest.
	Name string
	// K is the partition count, S the straggler budget, Workers the initial
	// worker count, Iters the training length.
	K, S, Workers, Iters int
	// GroupSize shards Workers into coding groups in grouped runtimes
	// (a flat root ignores it). Conformance addresses are ordered so that
	// consecutive worker slots share a group.
	GroupSize int
	// Behaviors scripts individual worker slots; missing slots run honest
	// and fast.
	Behaviors map[int]Behavior
	// IterTimeout bounds one collection attempt.
	IterTimeout time.Duration
	// Alpha, DriftThreshold, MinObservations, CooldownIters and InitialRate
	// parameterise the control plane (see elastic.Config). InitialRate also
	// seeds grouped runtimes' planned throughputs, so both runtimes start
	// from the same priors.
	Alpha           float64
	DriftThreshold  float64
	MinObservations int
	CooldownIters   int
	InitialRate     float64
	// Seed drives the fault schedules (per worker: Seed+slot).
	Seed int64
	// Expect are the invariants checked against the outcome.
	Expect Expect
}

// Expect declares the scenario's invariants. Zero fields are not checked
// (beyond the universal ones: all iterations complete, parameters finite
// and sane, at least Workers joins).
type Expect struct {
	// MinFinalEpoch requires migration: the (maximum) plan epoch of the last
	// iteration must be at least this.
	MinFinalEpoch int
	// MinDeaths requires the runtime to have observed that many deaths.
	MinDeaths int
	// MinJoins overrides the default join floor (Workers).
	MinJoins int
	// StaleRejected requires the epoch fence to have engaged at least once.
	StaleRejected bool
	// Malformed requires the pre-decode validation to have rejected at
	// least one upload.
	Malformed bool
	// RejoinSameID requires some worker to have resumed its old member
	// identity after a death.
	RejoinSameID bool
}

// Outcome is the runtime-agnostic digest of one conformance run. Grouped
// runtimes sum counters across groups and report the maximum final epoch.
type Outcome struct {
	Iters              int
	FinalEpoch         int
	StaleEpochRejected int
	StaleConnRejected  int
	StragglersSkipped  int
	MalformedSkipped   int
	TelemetrySamples   int
	Joins, Deaths      int
	Params             []float64
	// FencedUploads counts uploads rejected by the root-generation fence
	// (HA runs only).
	FencedUploads int
}

// Cluster adapts one runtime to the conformance suite.
type Cluster interface {
	// Addrs returns the dial address for each initial worker slot, ordered
	// so that consecutive slots share a coding group in grouped runtimes.
	Addrs() []string
	// Run waits for the initial membership, trains to completion and
	// digests the outcome.
	Run() (*Outcome, error)
	// Close tears the cluster down (idempotent; called even after Run).
	Close()
}

// Scenarios is the conformance table: the churn modes the paper's elastic
// estimate→allocate→re-code loop must survive, identically in every
// runtime.
func Scenarios() []Scenario {
	const (
		iterTimeout = 5 * time.Second
		fast        = 2 * time.Millisecond
		slow        = 30 * time.Millisecond
		rate        = 500 // partitions/second at 2ms per partition
	)
	churnOnly := func(sc Scenario) Scenario {
		// Churn-driven scenarios lobotomise the drift trigger so every
		// migration they see is attributable to the scripted membership
		// change.
		sc.DriftThreshold = 2.0
		sc.CooldownIters = 1 << 20
		return sc
	}
	return []Scenario{
		{
			// One worker slows 15x mid-run: the control plane must detect
			// the drift from telemetry and migrate load off it. The meter
			// reads one slow sample as a stall (estimate.Meter halves a
			// rate at most), so detection takes two, and the scripted
			// worker, serving broadcasts in order at 15x the others' time,
			// reports once per ~15 master iterations: 64 leave room for
			// three reports after iteration 6.
			Name: "slowdown", K: 8, S: 1, Workers: 6, GroupSize: 3, Iters: 64,
			IterTimeout: iterTimeout, InitialRate: rate,
			Alpha: 0.7, DriftThreshold: 0.5, MinObservations: 2, CooldownIters: 2,
			Behaviors: map[int]Behavior{
				5: {SlowAtIter: 6, SlowPerPart: slow},
			},
			Expect: Expect{MinFinalEpoch: 1},
		},
		churnOnly(Scenario{
			// A worker dies at an iteration boundary and never returns: the
			// survivors must absorb its load under a churn migration.
			Name: "kill", K: 8, S: 1, Workers: 6, GroupSize: 3, Iters: 20,
			IterTimeout: iterTimeout, InitialRate: rate,
			Behaviors: map[int]Behavior{
				1: {KillAtIter: 6},
			},
			Expect: Expect{MinFinalEpoch: 1, MinDeaths: 1},
		}),
		churnOnly(Scenario{
			// A dead worker rejoins under its old member identity while its
			// superseded connection's death report may still be in flight:
			// generation fencing must let the new connection live.
			Name: "rejoin-stale-conn", K: 8, S: 1, Workers: 6, GroupSize: 3, Iters: 24,
			IterTimeout: iterTimeout, InitialRate: rate,
			Behaviors: map[int]Behavior{
				2: {KillAtIter: 5, RejoinAtIter: 10},
			},
			Expect: Expect{MinFinalEpoch: 2, MinDeaths: 1, MinJoins: 7, RejoinSameID: true},
		}),
		churnOnly(Scenario{
			// Two workers of the same coding group vanish between the
			// parameter broadcast and their uploads, leaving the running
			// epoch undecodable: the master must migrate mid-iteration and
			// retry instead of hanging or failing.
			Name: "mid-iteration-death", K: 8, S: 1, Workers: 8, GroupSize: 4, Iters: 20,
			IterTimeout: iterTimeout, InitialRate: rate,
			Behaviors: map[int]Behavior{
				0: {KillAtIter: 6},
				1: {KillAtIter: 6},
			},
			Expect: Expect{MinFinalEpoch: 1, MinDeaths: 2},
		}),
		churnOnly(Scenario{
			// After a death forces a migration, a surviving worker keeps
			// uploading epoch-0 frames with poisoned payloads: the epoch
			// fence must reject every one before decode.
			Name: "poisoned-epoch", K: 8, S: 1, Workers: 6, GroupSize: 3, Iters: 20,
			IterTimeout: iterTimeout, InitialRate: rate,
			Behaviors: map[int]Behavior{
				0: {PoisonAfterMigration: true},
				1: {KillAtIter: 4},
			},
			Expect: Expect{MinFinalEpoch: 1, MinDeaths: 1, StaleRejected: true},
		}),
		churnOnly(Scenario{
			// One worker's uplink drops, delays, duplicates and truncates
			// gradient frames on a seeded schedule: training must complete
			// with every mangled frame fenced before decode.
			Name: "fault-injection", K: 8, S: 1, Workers: 6, GroupSize: 3, Iters: 24,
			IterTimeout: iterTimeout, InitialRate: rate, Seed: 7,
			Behaviors: map[int]Behavior{
				0: {Faults: &Rates{Drop: 0.15, Delay: 0.05, Dup: 0.15, Truncate: 0.25, DelayFor: 3 * time.Millisecond}},
			},
			Expect: Expect{Malformed: true},
		}),
	}
}

// Check asserts the scenario's invariants against an outcome and the
// scripted workers' records.
func (sc *Scenario) Check(t *testing.T, out *Outcome, recs []*WorkerRecord) {
	t.Helper()
	if out.Iters != sc.Iters {
		t.Errorf("%s: completed %d iterations, want %d", sc.Name, out.Iters, sc.Iters)
	}
	if out.FinalEpoch < sc.Expect.MinFinalEpoch {
		t.Errorf("%s: final epoch %d, want ≥ %d — the expected migration never happened", sc.Name, out.FinalEpoch, sc.Expect.MinFinalEpoch)
	}
	if out.Deaths < sc.Expect.MinDeaths {
		t.Errorf("%s: deaths = %d, want ≥ %d", sc.Name, out.Deaths, sc.Expect.MinDeaths)
	}
	minJoins := sc.Expect.MinJoins
	if minJoins == 0 {
		minJoins = sc.Workers
	}
	if out.Joins < minJoins {
		t.Errorf("%s: joins = %d, want ≥ %d", sc.Name, out.Joins, minJoins)
	}
	if sc.Expect.StaleRejected && out.StaleEpochRejected == 0 {
		t.Errorf("%s: no stale-epoch uploads were rejected — the fence never engaged", sc.Name)
	}
	if sc.Expect.Malformed && out.MalformedSkipped == 0 {
		t.Errorf("%s: no malformed uploads were rejected — pre-decode validation never engaged", sc.Name)
	}
	if out.TelemetrySamples == 0 {
		t.Errorf("%s: no telemetry ingested", sc.Name)
	}
	for i, p := range out.Params {
		if math.IsNaN(p) || math.IsInf(p, 0) || p > 1e6 || p < -1e6 {
			t.Errorf("%s: poisoned or divergent parameter %v at %d — a fenced upload reached combine", sc.Name, p, i)
			break
		}
	}
	if sc.Expect.RejoinSameID {
		rejoined := false
		for _, rec := range recs {
			if rec.RejoinID != 0 && rec.RejoinID == rec.ID {
				rejoined = true
			}
			if rec.RejoinID != 0 && rec.RejoinID != rec.ID {
				t.Errorf("%s: rejoin resumed member %d, want old identity %d", sc.Name, rec.RejoinID, rec.ID)
			}
		}
		if !rejoined {
			t.Errorf("%s: rejoin never happened", sc.Name)
		}
	}
}

// RunConformance executes every scenario in the table against a runtime:
// start builds a listening (not yet training) cluster for a scenario, the
// harness dials the scripted workers, Run trains to completion and the
// outcome is checked against the scenario's invariants. Failures name the
// scenario; rerun one with -run '<test>/<scenario-name>'.
func RunConformance(t *testing.T, start func(t *testing.T, sc *Scenario, fx *Fixture) Cluster) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			fx, err := NewFixture(sc.K, 300)
			if err != nil {
				t.Fatal(err)
			}
			cl := start(t, &sc, fx)
			defer cl.Close()
			var wg sync.WaitGroup
			var progress atomic.Int64
			recs := DriveWorkers(&sc, cl.Addrs(), fx, &wg, &progress)
			out, runErr := cl.Run()
			// Tear the cluster down before waiting on the workers: a run
			// that failed early (quorum timeout, group failure) leaves the
			// scripted workers blocked in Recv, and only the close unblocks
			// them. Close is idempotent, so the success path — where the
			// run already shut everything down — is unaffected.
			cl.Close()
			wg.Wait()
			if runErr != nil {
				t.Fatalf("%s: run failed: %v", sc.Name, runErr)
			}
			sc.Check(t, out, recs)
		})
	}
}
