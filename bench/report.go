package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"text/tabwriter"
	"time"
)

// summary is the full run's JSON document, and what -compare reads.
type summary struct {
	Benchmark   string            `json:"benchmark"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Environment environment       `json:"environment"`
	Runs        []*result         `json:"runs"`
	Probes      map[string]metric `json:"probes"`
	// Claim is always null: this benchmark reports measurements, and a
	// speed-up is a claim only a paired comparison of two commits can make.
	Claim *string `json:"claim"`
}

// environment records what the numbers were taken on: one process, loopback
// TCP, so "wire" time is kernel loopback and every byte is counted once.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Processes  int    `json:"processes"`
	Transport  string `json:"transport"`
	Loop       string `json:"loop"`
	GoVersion  string `json:"go_version"`
}

// runAll is the full run: every workload `runs` times untraced (seeds seed,
// seed+1, ...) and once traced, then the layer probes; it prints every
// metric by name with its unit, the budget tables and the JSON summary.
func runAll(seed int64, seconds, runs int, out, traceOut string) bool {
	sum := &summary{
		Benchmark: "hetgc-bench", Seed: seed, Seconds: seconds,
		Environment: environment{
			NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), Processes: 1,
			Transport: "loopback tcp", Loop: "closed, one iteration in flight, one client per worker",
			GoVersion: goruntime.Version(),
		},
	}
	ok := true
	var spans []spanRec
	for i := range workloads {
		w := &workloads[i]
		var untraced float64
		for r := 0; r < runs; r++ {
			res, _, err := measureWorkload(w, seed+int64(r), fullSizing(seconds), false)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(os.Stdout, res)
			sum.Runs = append(sum.Runs, res)
			ok = ok && res.Correct
			if r == 0 {
				untraced = res.Metrics["iter_p50_ms"].Value
			}
		}
		res, td, err := measureWorkload(w, seed, fullSizing(seconds), true)
		if err != nil {
			fatal(fmt.Errorf("%s traced: %w", w.name, err))
		}
		res.Metrics["trace_overhead_ratio"] = metric{res.Metrics["trace.iter_p50_ms"].Value/untraced - 1, "ratio"}
		printResult(os.Stdout, res)
		recs := td.spans()
		printBudget(os.Stdout, w.name, recs, res.Metrics["trace.iter_p50_ms"].Value)
		spans = append(spans, recs...)
		sum.Runs = append(sum.Runs, res)
		ok = ok && res.Correct
	}
	probes, err := runProbes(time.Second)
	if err != nil {
		fatal(fmt.Errorf("layer probe %w", err))
	}
	sum.Probes = probes
	fmt.Println("layer probes (median of one call)")
	printMetrics(os.Stdout, probes)
	if traceOut != "" {
		if err := writeSpansFile(traceOut, spans); err != nil {
			fatal(err)
		}
	}
	doc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s\n", doc)
	return ok
}

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadManifest finds BENCHMARK.json in the working directory or its parent:
// the benchmark is started from the repo root or from bench/.
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the benchmark's driver computes spreads with. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does: it extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of their median;
// zero when there are too few values to have one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func loadSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// untracedValues collects a metric's values over a workload's untraced runs
// and the workload's failed and attempted totals.
func (s *summary) untracedValues(workload, name string) (values []float64, failed, attempted int) {
	for _, r := range s.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		failed += r.Failed
		attempted += r.Attempted
		if m, ok := r.Metrics[name]; ok {
			values = append(values, m.Value)
		}
	}
	return values, failed, attempted
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// sets' medians and a verdict against the bound BENCHMARK.json fixes:
// unresolved when either set's spread exceeds the bound, otherwise
// regressed, improved or unchanged. It reports whether anything regressed
// or any workload's fail ratio rose.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	man, err := loadManifest()
	if err != nil {
		return false, err
	}
	a, err := loadSummary(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSummary(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tchange\tspread A/B\tbound\tverdict")
	for _, wl := range man.Workloads {
		for _, em := range man.EndToEnd {
			va, _, _ := a.untracedValues(wl.Name, em.Name)
			vb, _, _ := b.untracedValues(wl.Name, em.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: %d values in %s, %d in %s", wl.Name, em.Name, len(va), pathA, len(vb), pathB)
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if em.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "unchanged"
			switch {
			// setup_s is the one metric the contract does not hold to its
			// spread, only to its median.
			case em.Name != "setup_s" && (sa > em.Bound || sb > em.Bound):
				verdict = "unresolved"
			case worse > em.Bound:
				verdict, regressed = "REGRESSED", true
			case worse < -em.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f %%\t%.1f %% / %.1f %%\t%.0f %%\t%s\n",
				wl.Name, em.Name, em.Unit, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*em.Bound, verdict)
		}
		_, fa, na := a.untracedValues(wl.Name, "")
		_, fb, nb := b.untracedValues(wl.Name, "")
		ra, rb := float64(fa)/float64(max(na, 1)), float64(fb)/float64(max(nb, 1))
		verdict := "unchanged"
		if rb > ra {
			verdict, regressed = "REGRESSED", true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%.6g\t%.6g\t\t\t\t%s\n", wl.Name, ra, rb, verdict)
	}
	return regressed, tw.Flush()
}
