// Command gcplan computes and prints a gradient coding plan: the
// data-partition allocation, the coding matrix B, the decode groups (for the
// group-based scheme) and a robustness verification.
//
// Examples:
//
//	gcplan -throughputs 1,2,3,4,4 -k 7 -s 1 -scheme heter
//	gcplan -cluster A -s 1 -scheme group
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/hetgc/hetgc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gcplan:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gcplan", flag.ContinueOnError)
	var (
		throughputs = fs.String("throughputs", "", "comma-separated worker throughputs (e.g. 1,2,3,4,4)")
		clusterName = fs.String("cluster", "", "Table II cluster: A, B, C or D (overrides -throughputs)")
		k           = fs.Int("k", 0, "number of data partitions (0 = auto)")
		s           = fs.Int("s", 1, "straggler budget")
		scheme      = fs.String("scheme", "heter", "scheme: heter, group, cyclic, naive, fracrep")
		seed        = fs.Int64("seed", 1, "random seed for code construction")
		showB       = fs.Bool("matrix", true, "print the coding matrix B")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ths, err := resolveThroughputs(*clusterName, *throughputs)
	if err != nil {
		return err
	}
	m := len(ths)
	if *k <= 0 {
		*k = autoK(ths, *s, m)
	}
	rng := hetgc.NewRand(*seed)

	kind, ok := map[string]hetgc.Kind{
		"heter": hetgc.HeterAware, "group": hetgc.GroupBased, "cyclic": hetgc.Cyclic,
		"naive": hetgc.Naive, "fracrep": hetgc.FractionalRepetition,
	}[*scheme]
	if !ok {
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	st, err := hetgc.BuildStrategy(kind, ths, *k, *s, rng)
	if err != nil {
		return err
	}

	fmt.Printf("scheme=%v m=%d k=%d s=%d\n\n", st.Kind(), st.M(), st.K(), st.S())
	alloc := st.Allocation()
	fmt.Println("allocation (worker: load partitions):")
	for w := 0; w < st.M(); w++ {
		fmt.Printf("  W%-3d n=%-4d %v\n", w, alloc.Loads[w], alloc.Parts[w])
	}
	if groups := st.Groups(); len(groups) > 0 {
		fmt.Println("\ndecode groups (each tiles the dataset):")
		for i, g := range groups {
			fmt.Printf("  G%d: %v\n", i+1, g)
		}
	}
	if *showB && st.K() <= 40 && st.M() <= 40 {
		fmt.Println("\ncoding matrix B:")
		fmt.Print(st.B().String())
	}
	if err := hetgc.VerifyRobustness(st, 200, rng); err != nil {
		return fmt.Errorf("robustness verification FAILED: %w", err)
	}
	fmt.Printf("\nrobustness: verified against straggler patterns of size %d\n", st.S())
	return nil
}

func resolveThroughputs(clusterName, list string) ([]float64, error) {
	switch strings.ToUpper(clusterName) {
	case "A":
		return hetgc.ClusterA().Throughputs(), nil
	case "B":
		return hetgc.ClusterB().Throughputs(), nil
	case "C":
		return hetgc.ClusterC().Throughputs(), nil
	case "D":
		return hetgc.ClusterD().Throughputs(), nil
	case "":
	default:
		return nil, fmt.Errorf("unknown cluster %q (want A, B, C or D)", clusterName)
	}
	if list == "" {
		return nil, errors.New("one of -cluster or -throughputs is required")
	}
	parts := strings.Split(list, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad throughput %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// autoK picks a partition count that keeps proportional loads near-integral:
// the smallest multiple of Σc/(s+1) covering m, falling back to 2m.
func autoK(ths []float64, s, m int) int {
	var sum float64
	allInt := true
	for _, v := range ths {
		sum += v
		if v != float64(int(v)) {
			allInt = false
		}
	}
	if allInt {
		total := int(sum)
		if total%(s+1) == 0 {
			k := total / (s + 1)
			for k < m {
				k += total / (s + 1)
			}
			return k
		}
	}
	return 2 * m
}
