package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// smallSizing is roughly 1/50 of a benchmark run.
var smallSizing = sizing{measure: 300 * time.Millisecond, warm: 3, bringUps: 1, rounds: 2, setupLen: 2}

// TestManifestMatchesBenchmark holds BENCHMARK.json to the contract's shape
// and to the workload table the binary actually runs.
func TestManifestMatchesBenchmark(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary runs %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := man.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name, or why is not one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	sawSetup := false
	for _, m := range man.EndToEnd {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %q (%q): bad name or unit", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %q: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, m := range man.PerLayer {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %q (%q): bad name or unit", m.Name, m.Unit)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at dim 1e3 and a
// fraction of the length, untraced and traced, and checks that exactly the
// metrics BENCHMARK.json names come out, finite, with the declared units,
// and that nothing failed.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range man.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range man.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		w := w
		w.inputDim = 99
		for _, traced := range []bool{false, true} {
			res, td, err := measureWorkload(&w, 7, smallSizing, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s emitted but not in BENCHMARK.json", w.name, traced, name)
				}
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, res.Failed, res.Attempted, res.Problems)
			}
			if !traced {
				for name := range endToEnd {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			if w.durable != (res.Metrics["checkpoint.snapshots"].Value > 0) {
				t.Errorf("%s: checkpoint.snapshots = %v", w.name, res.Metrics["checkpoint.snapshots"].Value)
			}
			if got := res.Metrics["shard.reduce_ms"].Value; w.sharded != (got > 0) {
				t.Errorf("%s: shard.reduce_ms = %v", w.name, got)
			}
			if got := res.Metrics["elastic.replans"].Value; w.pinned && !w.sharded && got != 1 {
				t.Errorf("%s: elastic.replans = %v on a pinned control plane, want 1", w.name, got)
			}
			var buf bytes.Buffer
			recs := td.spans()
			if err := writeSpans(&buf, recs); err != nil || len(recs) == 0 {
				t.Fatalf("%s: span dump: %d records, %v", w.name, len(recs), err)
			}
			var first map[string]any
			if err := json.Unmarshal(buf.Bytes()[:bytes.IndexByte(buf.Bytes(), '\n')], &first); err != nil {
				t.Fatalf("%s: span dump line: %v", w.name, err)
			}
			for _, key := range []string{"workload", "iter", "layer", "name", "start_ns", "end_ns", "parent"} {
				if _, ok := first[key]; !ok {
					t.Errorf("%s: span record lacks %q", w.name, key)
				}
			}
			buf.Reset()
			printBudget(&buf, w.name, recs, res.Metrics["trace.iter_p50_ms"].Value)
			if !strings.Contains(buf.String(), "roster.collect") {
				t.Errorf("%s: budget table has no roster.collect row:\n%s", w.name, buf.String())
			}
		}
	}
}

// TestStepClock: the wrapper keeps the optimizer's state reachable for
// snapshots, stamps one return per applied step and refuses the step after
// its limit without touching the parameters.
func TestStepClock(t *testing.T) {
	c := &stepClock{inner: &ml.SGD{LR: 0.5, Momentum: 0.9}, limit: 2}
	params := []float64{1, 2}
	for i := 0; i < 2; i++ {
		if err := c.Step(params, []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	vecs, _ := c.OptimizerState()
	if len(vecs) != 1 || vecs[0][0] != 1.9 {
		t.Fatalf("optimizer state through the wrapper: %v, want the momentum vector [1.9 1.9]", vecs)
	}
	before := append([]float64(nil), params...)
	if err := c.Step(params, []float64{1, 1}); err != errStop {
		t.Fatalf("third step: %v, want errStop", err)
	}
	if params[0] != before[0] || c.final[0] != before[0] || len(c.returns) != 2 || !c.stopped.Load() {
		t.Errorf("refused step changed state: params %v, final %v, %d returns", params, c.final, len(c.returns))
	}
	fresh := &stepClock{inner: &ml.SGD{LR: 0.5, Momentum: 0.9}}
	if err := fresh.RestoreOptimizerState(vecs, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := fresh.inner.OptimizerState(); len(got) != 1 || got[0][1] != 1.9 {
		t.Errorf("restore through the wrapper: %v", got)
	}
}

// TestOracleCatchesDivergence: the check passes the oracle's own parameters
// and fails a perturbed copy, for the exact and for the loss-based check.
func TestOracleCatchesDivergence(t *testing.T) {
	for _, codec := range []string{"", "int8"} {
		w := workload{name: "t", workers: 2, k: 4, inputDim: 9, lr: 0.05, codec: codec}
		in, err := makeInputs(&w, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := reference(in, w.lr, 30)
		if err != nil {
			t.Fatal(err)
		}
		if bad := checkParams(&w, in, ref, 30); len(bad) != 0 {
			t.Errorf("codec %q: oracle's own parameters rejected: %v", codec, bad)
		}
		off := append([]float64(nil), ref...)
		for i := range off {
			off[i] *= 0.5
		}
		if bad := checkParams(&w, in, off, 30); len(bad) == 0 {
			t.Errorf("codec %q: halved parameters accepted", codec)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if v, pct := tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); v != 2 || pct != 100*2.0/12 {
		t.Errorf("tail of 12 samples = %v at p%v, want 2 at p16.7", v, pct)
	}
}

func TestCovered(t *testing.T) {
	got := covered(10, 100, [][2]int64{{0, 20}, {15, 30}, {50, 60}, {90, 200}})
	if got != 20+10+10 {
		t.Errorf("covered = %d, want 40", got)
	}
}

// TestCompareVerdicts feeds -compare synthetic run sets: identical sets are
// unchanged, a slower B regresses, a noisy set is unresolved.
func TestCompareVerdicts(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, scale, jitter float64, failed int) string {
		s := summary{Benchmark: "hetgc-bench"}
		for _, wl := range man.Workloads {
			for r := 0; r < 5; r++ {
				res := &result{Workload: wl.Name, Attempted: 100, Failed: failed, Metrics: map[string]metric{}}
				for _, m := range man.EndToEnd {
					v := 100 * (1 + jitter*float64(r-2))
					if m.Better == "lower" {
						v *= scale
					} else {
						v /= scale
					}
					res.Metrics[m.Name] = metric{v, m.Unit}
				}
				s.Runs = append(s.Runs, res)
			}
		}
		data, _ := json.Marshal(&s)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 0.001, 0)
	for _, c := range []struct {
		name      string
		other     string
		regressed bool
		contains  string
	}{
		{"same", write("same.json", 1, 0.001, 0), false, "unchanged"},
		{"slower", write("slower.json", 1.5, 0.001, 0), true, "REGRESSED"},
		{"faster", write("faster.json", 0.5, 0.001, 0), false, "improved"},
		{"noisy", write("noisy.json", 1, 0.2, 0), false, "unresolved"},
		{"failing", write("failing.json", 1, 0.001, 1), true, "REGRESSED"},
	} {
		var buf bytes.Buffer
		regressed, err := compareFiles(&buf, base, c.other)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !strings.Contains(buf.String(), c.contains) {
			t.Errorf("%s: regressed=%v, want %v and a %q row:\n%s", c.name, regressed, c.regressed, c.contains, buf.String())
		}
	}
}

// TestProbesRun runs every layer probe briefly: each must produce a finite,
// positive number under a well-formed name.
func TestProbesRun(t *testing.T) {
	probes, err := runProbes(5 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) < 30 {
		t.Errorf("only %d probes ran", len(probes))
	}
	for name, m := range probes {
		if !strings.HasPrefix(name, "probe.") || !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("probe %q (%q): bad name or unit", name, m.Unit)
		}
		if !(m.Value > 0) || math.IsInf(m.Value, 0) {
			t.Errorf("probe %s = %v", name, m.Value)
		}
	}
}
