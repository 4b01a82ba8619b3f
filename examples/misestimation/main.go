// Misestimation: the §V motivation for the group-based scheme. Strategies
// are built from *noisy* throughput estimates but run against the true
// speeds; as the estimation error grows, pure heter-aware decoding (which
// must hear from m−s workers) degrades faster than group-based decoding
// (which finishes as soon as any worker group completes).
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
	cl := hetgc.ClusterA()
	fmt.Printf("cluster %s (%d workers), s=1, strategies built from noisy estimates\n\n",
		cl.Name, cl.M())

	rows, err := hetgc.RunMisestimation(hetgc.MisestimationConfig{
		Cluster:    cl,
		S:          1,
		Epsilons:   []float64{0, 0.1, 0.2, 0.3, 0.5},
		Iterations: 50,
		Trials:     5,
		Seed:       99,
	})
	if err != nil {
		return err
	}
	fmt.Println("avg iteration time (s) vs relative estimation error eps:")
	fmt.Print(hetgc.MisestimationTable(rows).String())
	return nil
}
