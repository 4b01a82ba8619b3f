package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesAndWins(t *testing.T) {
	if q := quartiles([]float64{4, 1, 3, 2, 5}); q != [3]float64{2, 3, 4} {
		t.Errorf("quartiles of 1..5 = %v, want [2 3 4]", q)
	}
	if q := quartiles([]float64{10, 20}); q != [3]float64{12.5, 15, 17.5} {
		t.Errorf("quartiles of two values = %v, want them interpolated", q)
	}
	if q := quartiles(nil); q != [3]float64{} {
		t.Errorf("quartiles of nothing = %v", q)
	}
	parent, change := []float64{1, 2, 3, 4}, []float64{2, 2, 1, 5}
	if w := pairWins(parent, change, true); w != 2 {
		t.Errorf("higher-is-better wins = %d, want 2 (a tie is nobody's)", w)
	}
	if w := pairWins(parent, change, false); w != 1 {
		t.Errorf("lower-is-better wins = %d, want 1", w)
	}
}

// TestPairs runs the paired protocol end to end on a scratch repository whose
// benchmark is a shell script: the parent commit's script reports 10 iter/s,
// the working tree's 20, each echoing its seed — so the table shows which
// tree every run came from and that pair i ran on seed i.
func TestPairs(t *testing.T) {
	for _, tool := range []string{"git", "bash", "tar"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not installed", tool)
		}
	}
	root := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	script := func(rate string) string {
		return `echo building
echo '{"correct":true,"attempted":7,"failed":0,"metrics":{"iters_per_s":{"value":` + rate + `},"seed_echo":{"value":'"$4"'}}}'
`
	}
	write("BENCHMARK.json", `{"command":["bash","fake.sh"],"run_seconds":1,
		"workloads":[{"name":"only"}],
		"end_to_end":[{"name":"iters_per_s","better":"higher"},{"name":"seed_echo","better":"lower"}]}`)
	write("fake.sh", script("10"))
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", root, "-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "parent")
	write("fake.sh", script("20")) // the change: uncommitted, like a working tree

	var out strings.Builder
	if err := Pairs(&out, root, "HEAD", nil, 3); err != nil {
		t.Fatalf("Pairs: %v\n%s", err, out.String())
	}
	got := out.String()
	lines := strings.Split(got, "\n")
	// Odd pairs run the change first, even pairs the parent.
	for i, want := range []string{"change", "parent", "parent", "change", "change", "parent"} {
		if !strings.HasPrefix(lines[i], want) || !strings.Contains(lines[i], "seed "+string(rune('1'+i/2))) {
			t.Errorf("run %d is %q, want a %s run on seed %d", i, lines[i], want, 1+i/2)
		}
	}
	for _, want := range []string{
		"only               iters_per_s              10            0             20            0   3/3",
		"only               seed_echo                 2            1              2            1   0/3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("table lacks %q:\n%s", want, got)
		}
	}
}
