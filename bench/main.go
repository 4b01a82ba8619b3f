// Command bench is the repo's end-to-end benchmark: it drives the real
// runtime.ElasticMaster / shard.Root and runtime.ElasticWorker over loopback
// TCP in one process, measures them from outside, and checks the trained
// parameters against a single-worker oracle. See README.md.
//
// Three ways to run it:
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, one JSON line (the BENCHMARK.json contract)
//	bench -seed N [-runs R] [-out F] [-trace-out F]   every workload untraced and traced, plus the layer probes
//	bench -compare A.json B.json                      two -out files held against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"text/tabwriter"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print the contract's JSON line")
		seed     = flag.Int64("seed", 1, "seed for the data, cfg.Seed and the straggler schedule")
		seconds  = flag.Int("seconds", 16, "measured time per run, split over the rounds")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs traced and reports the per-layer metrics")
		runs     = flag.Int("runs", 1, "untraced runs per workload in a full run, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "write the full run's JSON summary here as well")
		traceOut = flag.String("trace-out", "", "write the traced runs' spans here, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	)
	flag.Parse()
	// The paper's cluster is a handful of machines; four procs is as far as
	// this box is allowed to pretend.
	if goruntime.NumCPU() > 4 {
		goruntime.GOMAXPROCS(4)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: need at least 1", *seconds))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two summary files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name != "":
		if !runOne(*name, *seed, *seconds, *trace == 1, *traceOut) {
			os.Exit(1)
		}
	default:
		if !runAll(*seed, *seconds, *runs, *out, *traceOut) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// watchdog ends the process if a run wedges: the contract gives a run 180
// seconds, and a hung cluster must not hold the driver longer than that.
func watchdog(seconds int) {
	time.AfterFunc(time.Duration(seconds)*time.Second+150*time.Second, func() {
		fatal(fmt.Errorf("run still going 150 s after its %d s window should have closed", seconds))
	})
}

// runOne is the BENCHMARK.json contract: one workload, one seed, traced or
// not; the last line of standard output is the JSON object the driver reads.
func runOne(name string, seed int64, seconds int, traced bool, traceOut string) bool {
	w, err := findWorkload(name)
	if err != nil {
		fatal(err)
	}
	watchdog(seconds)
	res, td, err := measureWorkload(w, seed, fullSizing(seconds), traced)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
	if td != nil {
		recs := td.spans()
		printBudget(os.Stdout, w.name, recs, res.Metrics["trace.iter_p50_ms"].Value)
		if traceOut != "" {
			if err := writeSpansFile(traceOut, recs); err != nil {
				fatal(err)
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	return res.Correct
}

func writeSpansFile(path string, recs []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints one run's metrics by name with their units.
func printResult(w io.Writer, res *result) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s seed %d %s: %d measured iterations, %d attempted, %d failed\n", res.Workload, res.Seed, kind, res.Samples, res.Attempted, res.Failed)
	printMetrics(w, res.Metrics)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, n := range names {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", n, ms[n].Value, ms[n].Unit)
	}
	tw.Flush()
}
