// Adaptive: the estimate → allocate → re-code loop. One deterministic
// simulation starts a heterogeneous cluster on wrong (uniform) throughput
// guesses; the elastic controller meters each worker's iterations, detects
// the load imbalance and re-codes mid-run — cutting the iteration time.
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
	// know yet. With no Estimates, every worker starts on the same prior.
	// One random transient straggler per iteration is the setting the s=1
	// code is built for (without stragglers, a lucky misallocation can win
	// the average case — Theorem 5 is about the worst case).
	res, err := hetgc.SimulateElastic(hetgc.ElasticSimConfig{
		K: 21, S: 1,
		InitialRates: []float64{0.5, 1, 2, 4, 4.5, 9},
		Injector:     hetgc.FixedStragglers{Count: 1, Delay: 10},
		Iterations:   30,
		Seed:         11,
	})
	if err != nil {
		return err
	}
	var drift *hetgc.GroupReplanEvent
	for i := range res.Replans {
		if res.Replans[i].Reason == "drift" {
			drift = &res.Replans[i]
			break
		}
	}
	if drift == nil {
		return fmt.Errorf("expected a drift replan, got %+v", res.Replans)
	}
	mean := func(ts []float64) float64 {
		sum := 0.0
		for _, t := range ts {
			sum += t
		}
		return sum / float64(len(ts))
	}
	before, after := mean(res.Times[:drift.Iter]), mean(res.Times[drift.Iter:])
	fmt.Printf("epoch 0 (uniform guess), iterations 0-%d:   avg iteration %.3fs\n", drift.Iter-1, before)
	fmt.Printf("drift replan at iteration %d: predicted imbalance %.2fx optimal\n", drift.Iter, drift.Imbalance)
	fmt.Printf("epochs %d-%d (re-coded), iterations %d-%d:   avg iteration %.3fs\n",
		drift.Epoch, res.Epochs[len(res.Epochs)-1][0], drift.Iter, len(res.Times)-1, after)
	fmt.Printf("\nadaptive re-coding cut iteration time by %.1fx\n", before/after)
	return nil
}
