package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc"
)

func TestRunSmallTraining(t *testing.T) {
	if err := run([]string{"-scheme", "heter", "-iters", "5", "-straggler-ms", "0", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGroupScheme(t *testing.T) {
	if err := run([]string{"-scheme", "group", "-iters", "4", "-straggler-ms", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCyclicScheme(t *testing.T) {
	if err := run([]string{"-scheme", "cyclic", "-iters", "4", "-straggler-ms", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNaiveScheme(t *testing.T) {
	if err := run([]string{"-scheme", "naive", "-iters", "4", "-straggler-ms", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if err := run([]string{"-scheme", "bogus"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-wat"}); err == nil {
		t.Fatal("expected flag error")
	}
}

func TestResumeWithoutCheckpointDir(t *testing.T) {
	err := run([]string{"-resume"})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("error %q does not name the missing flag", err)
	}
}

func TestResumeMissingCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-created")
	err := run([]string{"-checkpoint-dir", dir, "-resume"})
	if !errors.Is(err, hetgc.ErrNoCheckpoint) {
		t.Fatalf("resume from missing dir: %v, want ErrNoCheckpoint", err)
	}
	if !strings.Contains(err.Error(), "hint:") {
		t.Fatalf("error %q carries no remediation hint", err)
	}
}

func TestDurableFreshRefusesExistingState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := run([]string{"-checkpoint-dir", dir, "-iters", "4", "-snapshot-every", "2", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-checkpoint-dir", dir, "-iters", "4", "-seed", "4"})
	if !errors.Is(err, hetgc.ErrCheckpointExists) {
		t.Fatalf("fresh run over existing state: %v, want ErrCheckpointExists", err)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("error %q does not suggest -resume", err)
	}
}

func TestResumeCorruptSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := run([]string{"-checkpoint-dir", dir, "-iters", "4", "-snapshot-every", "2", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots written (%v)", err)
	}
	for _, p := range snaps {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] ^= 0x5a
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err = run([]string{"-checkpoint-dir", dir, "-iters", "8", "-resume", "-seed", "4"})
	if !errors.Is(err, hetgc.ErrCheckpointCorrupt) {
		t.Fatalf("resume over corrupt snapshots: %v, want ErrCheckpointCorrupt", err)
	}
	if !strings.Contains(err.Error(), "hint:") {
		t.Fatalf("error %q carries no remediation hint", err)
	}
}

func TestResumeHappyPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := run([]string{"-checkpoint-dir", dir, "-iters", "6", "-snapshot-every", "2", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	// Continue the same run for more iterations from its final snapshot.
	if err := run([]string{"-checkpoint-dir", dir, "-iters", "10", "-snapshot-every", "2", "-resume", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	st, err := hetgc.RecoverCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastIter != 9 {
		t.Fatalf("checkpoint records last iteration %d, want 9", st.LastIter)
	}
}

func TestResumeAlreadyComplete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := run([]string{"-checkpoint-dir", dir, "-iters", "4", "-snapshot-every", "2", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	// Resuming with the same -iters has nothing left to run: must report
	// that cleanly, not panic or error.
	if err := run([]string{"-checkpoint-dir", dir, "-iters", "4", "-resume", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestHAFlagValidation(t *testing.T) {
	if err := run([]string{"-lease-ttl", "-1s"}); err == nil || !strings.Contains(err.Error(), "-lease-ttl") {
		t.Fatalf("negative ttl: %v", err)
	}
	if err := run([]string{"-lease-ttl", "2s"}); err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("lease without dir: %v", err)
	}
	if err := run([]string{"-standby"}); err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("standby without dir: %v", err)
	}
}

func TestRunLeased(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := run([]string{"-checkpoint-dir", dir, "-iters", "4", "-snapshot-every", "2", "-lease-ttl", "5s", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	tok, err := hetgc.ReadLeaseToken(dir)
	if err != nil || tok.Gen != 1 {
		t.Fatalf("lease after run = %+v, %v, want generation 1", tok, err)
	}
}

func TestStandByPromotes(t *testing.T) {
	dir := t.TempDir()
	lease, err := hetgc.AcquireLease(dir, "root-x", "addr-x", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	_ = lease // never renewed: the lease lapses and the standby promotes
	if err := standBy(dir, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemediateHA(t *testing.T) {
	dir := t.TempDir()
	if _, err := hetgc.AcquireLease(dir, "root-b", "addr-b", time.Hour); err != nil {
		t.Fatal(err)
	}
	err := remediate(fmt.Errorf("run: %w", hetgc.ErrFenced), dir)
	if !errors.Is(err, hetgc.ErrFenced) || !strings.Contains(err.Error(), `generation 1 ("root-b" at addr-b)`) {
		t.Fatalf("fenced remediation %q does not name the usurper", err)
	}
	err = remediate(fmt.Errorf("run: %w", hetgc.ErrFenced), filepath.Join(dir, "nope"))
	if !errors.Is(err, hetgc.ErrFenced) || !strings.Contains(err.Error(), "hint:") {
		t.Fatalf("fenced remediation without a token: %q", err)
	}
	err = remediate(fmt.Errorf("run: %w", hetgc.ErrLeaseHeld), dir)
	if !errors.Is(err, hetgc.ErrLeaseHeld) || !strings.Contains(err.Error(), "-standby") {
		t.Fatalf("lease-held remediation: %q", err)
	}
}
