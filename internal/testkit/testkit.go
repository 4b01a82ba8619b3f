// Package testkit is the shared adversarial test harness for the elastic
// runtimes. It provides three things:
//
//   - A fault-injecting transport wrapper (FaultConn + Schedule): drop,
//     delay, duplicate, truncate and stale-epoch replay faults applied to
//     gradient uploads on a seeded, fully reproducible schedule.
//   - A scripted protocol worker (DriveWorkers + Behavior): a raw
//     implementation of the elastic worker protocol whose behavior —
//     slowdowns, mid-iteration deaths, rejoins under the old member
//     identity, stale-epoch poisoning, transport faults — is declared per
//     scenario instead of hand-rolled per test.
//   - A runtime-agnostic conformance suite (Scenarios + RunConformance):
//     one table of churn scenarios executed identically against every
//     root shape that can present itself as a Cluster, so the flat root (one
//     group) and a root of several groups are held to the same survival
//     guarantees by the same code.
//
// Everything is deterministic given the scenario seed: a failing run is
// reproduced by re-running the same scenario (go test -run
// 'TestConformance.*/<scenario-name>'), not by rolling dice.
package testkit

import (
	"fmt"
	"math/rand"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/transport"
)

// Fixture is the shared training workload for conformance scenarios: a
// Gaussian-mixture dataset split into k partitions and a softmax model,
// mirroring the fixtures the runtime packages use in their own end-to-end
// tests.
type Fixture struct {
	Model *ml.Softmax
	Data  *ml.Dataset
	Parts []*ml.Dataset
}

// NewFixture builds the workload for a k-partition scenario. Fixed seed:
// identical data for every runtime under test.
func NewFixture(k int, seed int64) (*Fixture, error) {
	data, err := ml.GaussianMixture(k*12, 4, 3, 3, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("testkit fixture: %w", err)
	}
	parts, err := data.Split(k)
	if err != nil {
		return nil, fmt.Errorf("testkit fixture: %w", err)
	}
	return &Fixture{Model: &ml.Softmax{InputDim: 4, NumClasses: 3}, Data: data, Parts: parts}, nil
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
