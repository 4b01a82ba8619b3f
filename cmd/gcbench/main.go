// Command gcbench converts `go test -bench` text output into the JSON
// benchmark-trajectory format tracked in BENCH_*.json, so perf PRs can diff
// against the committed baseline:
//
//	go test -run '^$' -bench . -benchmem ./... | gcbench > BENCH_baseline.json
//
// (or `make bench-baseline`). Lines that are not benchmark results (pkg
// headers, PASS/ok, skips) are ignored.
//
// With -compare it becomes a regression gate instead: it parses the current
// bench output from stdin, matches it against the committed baseline and
// fails when any benchmark selected by -filter regressed by more than
// -tolerance (relative ns/op):
//
//	go test -run '^$' -bench 'Decode|Encode|Uplink|IterRate|Broadcast|Frame|Float64Codec|SoftmaxGradient' ./... | \
//	    gcbench -compare BENCH_baseline.json
//
// (or `make bench-compare`).
//
// With -pairs it runs the live-cluster end-to-end benchmark (bench/) as
// alternating pairs of a parent revision and this checkout and prints medians,
// spreads and pair wins — the protocol a performance change is judged by:
//
//	gcbench -pairs -parent HEAD~1 -workloads hetero-straggler -n 10
//
// (or `make bench-pairs PARENT=HEAD~1`).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ErrNoBaseline is returned by -compare when the baseline file does not
// exist; main exits with code 2 (instead of the generic 1) so callers can
// distinguish "no baseline recorded yet" from a real regression.
var ErrNoBaseline = errors.New("gcbench: baseline file not found")

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with any -N GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Package is the Go package the benchmark came from (the preceding
	// "pkg:" header), when present.
	Package string `json:"package,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is bytes allocated per operation (-benchmem only).
	BytesPerOp *float64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is allocations per operation (-benchmem only).
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. the batched uplink
	// benches' "wire-B/iter" — bytes on the wire per iteration), keyed by
	// unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the emitted document.
type Report struct {
	// GoOS/GoArch/CPU echo the bench header for context, when present.
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Results lists every parsed benchmark line in input order.
	Results []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
		if errors.Is(err, ErrNoBaseline) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("gcbench", flag.ContinueOnError)
	var (
		compare   = fs.String("compare", "", "baseline BENCH_*.json to gate against (default: emit JSON)")
		tolerance = fs.Float64("tolerance", 0.25, "maximum allowed relative ns/op regression")
		filter    = fs.String("filter", "Decode|Encode|Uplink|IterRate|Broadcast|Frame|Float64Codec|SoftmaxGradient", "regexp selecting benchmarks to gate")
		pairs     = fs.Bool("pairs", false, "run paired end-to-end benchmark runs of -parent against this checkout (see Pairs)")
		parent    = fs.String("parent", "", "with -pairs: the git revision to measure against")
		workloads = fs.String("workloads", "", "with -pairs: comma-separated BENCHMARK.json workloads (default: all)")
		n         = fs.Int("n", 10, "with -pairs: pairs per workload")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pairs {
		if *parent == "" || *n < 1 {
			return errors.New("-pairs needs -parent <rev> and -n ≥ 1")
		}
		var names []string
		if *workloads != "" {
			names = strings.Split(*workloads, ",")
		}
		return Pairs(out, ".", *parent, names, *n)
	}
	report, err := Parse(in)
	if err != nil {
		return err
	}
	if *compare == "" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	baseRaw, err := os.ReadFile(*compare)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: %s — record one with `make bench-baseline` (and commit it) before gating",
				ErrNoBaseline, *compare)
		}
		return err
	}
	var baseline Report
	if err := json.Unmarshal(baseRaw, &baseline); err != nil {
		return fmt.Errorf("baseline %s: %w", *compare, err)
	}
	return Compare(out, report, &baseline, *filter, *tolerance)
}

// Compare gates current results against a baseline: benchmarks matching the
// filter regexp that regressed by more than tolerance (relative ns/op) fail
// the run, and so do gated baseline benchmarks that are missing from the
// current run — a silently vanished benchmark (e.g. a package whose benches
// stopped compiling) must not read as a pass. Custom b.ReportMetric units
// recorded in the baseline ("wire-B/iter", "iter/s", ...) are gated with the
// same tolerance: throughput-style units (containing "/s") regress when the
// current value drops below baseline, everything else when it rises above —
// and an extra that vanished from the current run fails too. Benchmarks
// absent from the baseline are reported but don't fail.
func Compare(out io.Writer, current, baseline *Report, filter string, tolerance float64) error {
	re, err := regexp.Compile(filter)
	if err != nil {
		return fmt.Errorf("filter: %w", err)
	}
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Package+"."+r.Name] = r
	}
	seen := make(map[string]bool)
	gated, regressed, missing := 0, 0, 0
	for _, r := range current.Results {
		if !re.MatchString(r.Name) {
			continue
		}
		key := r.Package + "." + r.Name
		b, ok := base[key]
		if !ok {
			fmt.Fprintf(out, "NEW      %-40s %12.1f ns/op (not in baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		seen[key] = true
		gated++
		delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		if delta > tolerance {
			status = "REGRESSED"
			regressed++
		}
		fmt.Fprintf(out, "%-9s %-40s %12.1f -> %12.1f ns/op (%+.1f%%)\n",
			status, r.Name, b.NsPerOp, r.NsPerOp, delta*100)
		for _, unit := range sortedKeys(b.Extra) {
			bv := b.Extra[unit]
			cv, ok := r.Extra[unit]
			if !ok {
				missing++
				fmt.Fprintf(out, "MISSING  %-40s baseline %12.1f %s, absent from current run\n", r.Name, bv, unit)
				continue
			}
			if bv == 0 {
				continue // no relative delta to gate against
			}
			delta := (cv - bv) / bv
			bad := delta > tolerance // lower-is-better units (bytes, B/iter)
			if strings.Contains(unit, "/s") {
				bad = delta < -tolerance // throughput units: a drop regresses
			}
			status := "ok"
			if bad {
				status = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(out, "%-9s %-40s %12.1f -> %12.1f %s (%+.1f%%)\n",
				status, r.Name, bv, cv, unit, delta*100)
		}
	}
	for _, b := range baseline.Results {
		if !re.MatchString(b.Name) || seen[b.Package+"."+b.Name] {
			continue
		}
		missing++
		fmt.Fprintf(out, "MISSING  %-40s baseline %12.1f ns/op, absent from current run\n", b.Name, b.NsPerOp)
	}
	if gated == 0 {
		return fmt.Errorf("no benchmarks matched filter %q against the baseline", filter)
	}
	if missing > 0 {
		return fmt.Errorf("%d gated baseline benchmarks (or their reported metrics) missing from the current run", missing)
	}
	if regressed > 0 {
		return fmt.Errorf("%d of %d gated benchmarks regressed beyond %.0f%%", regressed, gated, tolerance*100)
	}
	fmt.Fprintf(out, "all %d gated benchmarks within %.0f%% of baseline\n", gated, tolerance*100)
	return nil
}

// sortedKeys returns m's keys in sorted order so gate output is stable.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Parse reads `go test -bench` output and collects benchmark results.
func Parse(r io.Reader) (*Report, error) {
	report := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if ok {
				res.Package = pkg
				report.Results = append(report.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return report, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkEncodeInto-8   7915   160755 ns/op   0 B/op   0 allocs/op
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: name, Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = val
			seenNs = true
		case "B/op":
			v := val
			res.BytesPerOp = &v
		case "allocs/op":
			v := val
			res.AllocsPerOp = &v
		default:
			// Custom b.ReportMetric units (MB/s, wire-B/iter, ...).
			if res.Extra == nil {
				res.Extra = make(map[string]float64)
			}
			res.Extra[fields[i+1]] = val
		}
	}
	if !seenNs {
		return Result{}, false
	}
	return res, true
}
