package main

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/node"
)

func writeRoster(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.toml")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-wat"}); err == nil {
		t.Fatal("expected flag error")
	}
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "-roster") {
		t.Fatalf("missing roster: %v", err)
	}
	if err := run([]string{"-roster", "x", "-lease-ttl", "2s"}); err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("shared block validation must run: %v", err)
	}
	if err := run([]string{"-roster", "x", "-codec", "int8"}); err == nil || !strings.Contains(err.Error(), "gcroot -codec") {
		t.Fatalf("a worker -codec must be refused with a pointer to the root's: %v", err)
	}
}

func TestRunRejectsBadRosterFile(t *testing.T) {
	roster := writeRoster(t, "workers = 0")
	if err := run([]string{"-roster", roster}); !errors.Is(err, hetgc.ErrRoster) {
		t.Fatalf("err = %v, want ErrRoster", err)
	}
}

func TestRunGivesUpAfterMaxCycles(t *testing.T) {
	// A roster of dead addresses with bounded cycles must exit with the dial
	// error instead of spinning forever.
	roster := writeRoster(t, "root = \"127.0.0.1:1\"\nworkers = 1\n")
	err := run([]string{"-roster", roster, "-k", "4", "-max-cycles", "2", "-dial-timeout", "100ms"})
	if err == nil {
		t.Fatal("worker with an unreachable roster returned nil")
	}
}

// TestRunWorkerTrainsAgainstRoot drives the full worker path through run():
// two workers join an in-process root, fetch their shards over the wire and
// exit nil when training finishes.
func TestRunWorkerTrainsAgainstRoot(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	roster := writeRoster(t, "root = \""+addr+"\"\nworkers = 2\n")
	root, err := node.StartRoot(node.ClusterConfig{
		Roster:     node.Roster{Root: addr, Workers: 2},
		K:          4,
		Iterations: 5,
		Seed:       3,
		DurabilityConfig: clustercfg.DurabilityConfig{
			CheckpointDir: t.TempDir(),
			SnapshotEvery: 2,
		},
		HAConfig: clustercfg.HAConfig{LeaseTTL: 5 * time.Second},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	rootDone := make(chan error, 1)
	go func() { _, err := root.Run(15 * time.Second); rootDone <- err }()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run([]string{"-roster", roster, "-k", "4", "-seed", "3", "-dial-timeout", "2s"})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-rootDone; err != nil {
		t.Fatalf("root: %v", err)
	}
}
