package hetgc_test

import (
	"fmt"

	"github.com/hetgc/hetgc"
)

// ExampleNewHeterAware reproduces Example 1 of the paper: five workers with
// relative speeds 1,2,3,4,4 receive loads proportional to speed, and any
// single straggler can be tolerated.
func ExampleNewHeterAware() {
	st, err := hetgc.NewHeterAware([]float64{1, 2, 3, 4, 4}, 7, 1, hetgc.NewRand(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("loads:", st.Allocation().Loads)
	coeffs, err := st.Decode(hetgc.AliveFromStragglers(st.M(), []int{0}))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("straggler 0 coefficient:", coeffs[0])
	// Output:
	// loads: [1 2 3 4 4]
	// straggler 0 coefficient: 0
}

// ExampleNewGroupBased shows the decode groups found on the Example 1
// allocation: {W3,W4} and {W1,W2,W5} (0-based: {2,3} and {0,1,4}) each tile
// the seven partitions, so either group's plain sum is the full gradient.
func ExampleNewGroupBased() {
	st, err := hetgc.NewGroupBased([]float64{1, 2, 3, 4, 4}, 7, 1, hetgc.NewRand(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("groups:", st.Groups())
	// Output:
	// groups: [[0 1 4] [2 3]]
}

// ExampleStrategy_Decode decodes with one straggler and verifies aᵀB = 1ᵀ.
func ExampleStrategy_Decode() {
	st, err := hetgc.NewCyclic(4, 1, hetgc.NewRand(2))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	coeffs, err := st.Decode(hetgc.AliveFromStragglers(4, []int{2}))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	row, err := st.B().VecMul(coeffs)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	allOnes := true
	for _, v := range row {
		if v < 0.999999 || v > 1.000001 {
			allOnes = false
		}
	}
	fmt.Println("aᵀB = 1ᵀ:", allOnes)
	// Output:
	// aᵀB = 1ᵀ: true
}

// ExampleSimulateElastic runs a deterministic timing simulation at the
// Theorem 5 optimum: with exact estimates (c = 1,2,3,4,4 datasets/s, so
// 7·c partitions/s for k = 7) every worker finishes at (s+1)k/Σ(7c) seconds.
func ExampleSimulateElastic() {
	rates := []float64{7, 14, 21, 28, 28}
	res, err := hetgc.SimulateElastic(hetgc.ElasticSimConfig{
		K: 7, S: 1,
		InitialRates: rates,
		Estimates:    rates,
		Iterations:   3,
		Seed:         3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("avg iteration: %.4fs\n", res.AvgIterTime())
	// Output:
	// avg iteration: 0.1429s
}
