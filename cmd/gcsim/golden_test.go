package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRunAllGolden pins every table gcsim prints at the default iteration
// count and seed. It covers each route from throughput estimates to a code:
// the figures and ablations build all five schemes, churn drives the elastic
// controller, and sharded goes through the group layout and its partition
// split. Rerun with -update only for a change meant to move the numbers.
func TestRunAllGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden holds amd64 floats; FMA fusion moves them elsewhere")
	}
	got := captureStdout(t, func() error { return run([]string{"-exp", "all"}) })
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gcsim -exp all differs from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := f()
	os.Stdout = stdout
	w.Close()
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got
}
