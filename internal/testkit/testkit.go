// Package testkit is the shared test harness for the live root: every test
// that trains a cluster over sockets brings it up here. It provides four
// things:
//
//   - One cluster builder (Open/Start + Live): a shard.Root on Addr, the one
//     address live tests listen on, and real runtime.ElasticWorkers dialled
//     into its worker slots in group order, each with its own delays. A
//     one-group root is the flat cluster; more groups come from Throughputs.
//   - A fault-injecting transport wrapper (FaultConn + Schedule): drop,
//     delay, duplicate, truncate and stale-epoch replay faults applied to
//     gradient uploads on a seeded, fully reproducible schedule.
//   - A scripted protocol worker (DriveWorkers + Behavior): a raw
//     implementation of the elastic worker protocol whose behavior —
//     slowdowns, mid-iteration deaths, rejoins under the old member
//     identity, stale-epoch poisoning, transport faults — is declared per
//     scenario instead of hand-rolled per test.
//   - The conformance suites (RunConformance, RunRecoveryConformance,
//     RunHAConformance): one table each of churn, crash and failover
//     scenarios, run through the builder at either Layout, so a root of one
//     group and a root of several are held to the same survival guarantees
//     by the same code.
//
// Everything is deterministic given the scenario seed: a failing run is
// reproduced by re-running the same scenario (go test -run
// 'TestConformance.*/<scenario-name>'), not by rolling dice.
package testkit

import (
	"math/rand"
	"testing"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/transport"
)

// Fixture is the training workload of a live test: a Gaussian-mixture
// dataset split into k partitions and a softmax model.
type Fixture struct {
	Model *ml.Softmax
	Data  *ml.Dataset
	Parts []*ml.Dataset
}

// NewFixture builds a k-partition workload of rows samples per partition
// from seed, failing t if it cannot: a fixed seed gives every root under
// test identical data.
func NewFixture(t testing.TB, k, rows int, seed int64) *Fixture {
	t.Helper()
	data, err := ml.GaussianMixture(k*rows, 4, 3, 3, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("testkit fixture: %v", err)
	}
	parts, err := data.Split(k)
	if err != nil {
		t.Fatalf("testkit fixture: %v", err)
	}
	return &Fixture{Model: &ml.Softmax{InputDim: 4, NumClasses: 3}, Data: data, Parts: parts}
}

// Config is a root that trains fx over its partitions with straggler budget
// s for iters iterations: the model from its initial parameters, SGD at rate
// 0.5, plans on seed 1. Callers set the rest.
func (fx *Fixture) Config(s, iters int) shard.Config {
	return shard.Config{
		K: len(fx.Parts), S: s,
		Model:         fx.Model,
		Optimizer:     &ml.SGD{LR: 0.5},
		InitialParams: fx.Model.InitParams(nil),
		Iterations:    iters,
		SampleCount:   fx.Data.N(),
		Seed:          1,
	}
}

// coded is an honest worker's coded gradient for assign at params, formed as
// the runtime's worker forms it.
func (fx *Fixture) coded(assign *transport.Assignment, params []float64) (grad.Gradient, error) {
	parts := make([]*ml.Dataset, len(assign.Partitions))
	for i, p := range assign.Partitions {
		parts[i] = fx.Parts[p]
	}
	coded := make(grad.Gradient, len(params))
	return coded, ml.CodedGradient(fx.Model, coded, params, parts, assign.RowCoeffs)
}
