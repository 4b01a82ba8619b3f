// Adaptive: the estimate → allocate → re-code loop. The elastic controller
// starts from wrong (uniform) throughput guesses on a heterogeneous cluster,
// observes one epoch of per-worker timings, detects the load imbalance and
// rebuilds the coding strategy — cutting the simulated iteration time.
package main

import (
	"fmt"
	"log"

	"github.com/hetgc/hetgc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// True speeds (partitions/second): an 18x spread the operator does not
	// know yet.
	truth := []float64{0.5, 1, 2, 4, 4.5, 9}
	const k, s = 21, 1
	ctrl, err := hetgc.NewElasticController(hetgc.ElasticControllerConfig{
		K: k, S: s, MinObservations: 1, CooldownIters: 1,
	}, hetgc.NewRand(11))
	if err != nil {
		return err
	}
	for w := range truth {
		ctrl.AddMember(w, 1) // uniform guess
	}
	plan, err := ctrl.Replan(0, "initial")
	if err != nil {
		return err
	}

	simulate := func(label string) (float64, error) {
		rates := make([]float64, len(truth))
		for i, v := range truth {
			rates[i] = v / float64(k) // datasets/second
		}
		// One random transient straggler per iteration: the setting the
		// s=1 code is built for (without stragglers, a lucky misallocation
		// can win the average case — Theorem 5 is about the worst case).
		res, err := hetgc.Simulate(hetgc.SimConfig{
			Strategy:    plan.Strategy,
			Throughputs: rates,
			Injector:    hetgc.FixedStragglers{Count: 1, Delay: 10, Rng: hetgc.NewRand(101)},
			Iterations:  50,
		})
		if err != nil {
			return 0, err
		}
		fmt.Printf("%-22s loads=%v  avg iteration %.3fs\n",
			label, plan.Strategy.Allocation().Loads, res.AvgIterTime())
		return res.AvgIterTime(), nil
	}

	before, err := simulate("epoch 0 (uniform plan)")
	if err != nil {
		return err
	}
	// One epoch of observations: each worker reports how long its assigned
	// load took at its true speed.
	for w, n := range plan.Strategy.Allocation().Loads {
		if n == 0 {
			continue
		}
		if err := ctrl.Observe(w, n, float64(n)/truth[w]); err != nil {
			return err
		}
	}
	fmt.Printf("predicted imbalance after epoch 0: %.2fx optimal\n", ctrl.Imbalance())

	replan, reason := ctrl.ShouldReplan(1)
	if !replan {
		return fmt.Errorf("expected a replan")
	}
	if plan, err = ctrl.Replan(1, reason); err != nil {
		return err
	}
	after, err := simulate("epoch 1 (re-coded plan)")
	if err != nil {
		return err
	}
	fmt.Printf("\nadaptive re-coding (%s) cut iteration time by %.1fx\n", reason, before/after)
	return nil
}
