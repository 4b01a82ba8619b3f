package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchContract is what the paired runner reads of BENCHMARK.json: how to run
// one workload, for how long, which workloads exist, and which way each
// end-to-end metric is better.
type benchContract struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// benchRun is the JSON line one untraced benchmark run ends its stdout with.
type benchRun struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// Pairs measures this checkout against a parent revision the way a
// performance change is judged: n pairs of untraced runs per workload at the
// benchmark's own run length, pair i on seed i, alternating which side runs
// first. The parent's tree is extracted (git archive) under
// .bench_build/pairs/<rev> and each side is built by its own bench/run.sh, so
// both run the benchmark code of their own commit. Every run is printed as it
// finishes; the table at the end gives, per workload and end-to-end metric,
// both medians, both inter-quartile spreads and the pairs the change won
// (ties count for neither side).
func Pairs(out io.Writer, root, parent string, workloads []string, n int) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bc benchContract
	if err := json.Unmarshal(raw, &bc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bc.Command) == 0 || bc.RunSeconds <= 0 {
		return fmt.Errorf("BENCHMARK.json: no command or run length")
	}
	if len(workloads) == 0 {
		for _, w := range bc.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	parentDir, err := extractParent(root, parent)
	if err != nil {
		return err
	}
	sides := [2]struct{ name, dir string }{{"parent", parentDir}, {"change", root}}
	for _, w := range workloads {
		runs := [2][]benchRun{}
		for i := 1; i <= n; i++ {
			for j := 0; j < 2; j++ {
				s := (i + j) % 2 // odd pairs run the change first
				r, err := runBench(sides[s].dir, bc.Command, w, i, bc.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s, %s, seed %d: %w", sides[s].name, w, i, err)
				}
				runs[s] = append(runs[s], r)
				fmt.Fprintf(out, "%-6s %-18s seed %-3d correct=%v failed=%d/%d", sides[s].name, w, i, r.Correct, r.Failed, r.Attempted)
				for _, m := range bc.EndToEnd {
					fmt.Fprintf(out, "  %s=%.4g", m.Name, r.Metrics[m.Name].Value)
				}
				fmt.Fprintln(out)
			}
		}
		fmt.Fprintf(out, "\n%-18s %-12s %14s %12s %14s %12s %6s\n", "workload", "metric", "parent median", "parent IQR", "change median", "change IQR", "wins")
		for _, m := range bc.EndToEnd {
			var vals [2][]float64
			for s := range runs {
				for _, r := range runs[s] {
					vals[s] = append(vals[s], r.Metrics[m.Name].Value)
				}
			}
			pq, cq := quartiles(vals[0]), quartiles(vals[1])
			fmt.Fprintf(out, "%-18s %-12s %14.4g %12.4g %14.4g %12.4g %3d/%-2d\n",
				w, m.Name, pq[1], pq[2]-pq[0], cq[1], cq[2]-cq[0], pairWins(vals[0], vals[1], m.Better == "higher"), n)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// extractParent unpacks rev's tree under root's .bench_build (which the
// repository ignores) and returns the directory. A plain copy of the files:
// it needs no clean-up in .git, and a stale one is simply replaced.
func extractParent(root, rev string) (string, error) {
	sha, err := exec.Command("git", "-C", root, "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("parent revision %q: %w", rev, err)
	}
	dir := filepath.Join(root, ".bench_build", "pairs", strings.TrimSpace(string(sha)))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "-C", root, "archive", strings.TrimSpace(string(sha)))
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive: %w", err)
	}
	if err := untar.Wait(); err != nil {
		return "", fmt.Errorf("tar: %w", err)
	}
	return dir, nil
}

// runBench runs one untraced benchmark run in dir and parses the JSON line
// its stdout ends with.
func runBench(dir string, command []string, workload string, seed, seconds int) (benchRun, error) {
	args := append(append([]string{}, command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return benchRun{}, err
	}
	last := bytes.TrimSpace(stdout)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var r benchRun
	if err := json.Unmarshal(last, &r); err != nil {
		return benchRun{}, fmt.Errorf("last stdout line %q: %w", last, err)
	}
	return r, nil
}

// quartiles returns the first quartile, the median and the third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	if len(s) == 0 {
		return q
	}
	for i := range q {
		pos := float64(i+1) / 4 * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

// pairWins counts the pairs in which the change's value beats the parent's.
func pairWins(parent, change []float64, higherBetter bool) int {
	wins := 0
	for i := range parent {
		if (higherBetter && change[i] > parent[i]) || (!higherBetter && change[i] < parent[i]) {
			wins++
		}
	}
	return wins
}
