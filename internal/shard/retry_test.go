package shard_test

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
)

// retryRoot is a root over fx for the group retry rule, at both shapes:
// one group waiting for all m workers, or m planned workers in groups of
// three. Drift never replans, so every migration is the rule's own.
func retryRoot(fx *testkit.Fixture, s, iters, m int, groups bool, timeout time.Duration) shard.Config {
	cfg := fx.Config(s, iters)
	if groups {
		cfg = grouped(fx, s, iters, m)
	} else {
		cfg.MinWorkers = m
	}
	cfg.IterTimeout = timeout
	cfg.DriftThreshold = math.Inf(1)
	return cfg
}

// TestGroupRetriesAFailedAttempt: every worker sits on the first broadcast
// of each iteration past IterTimeout, so each iteration's first attempt
// fails. The group migrates with reason churn, decodes on the retry under
// the new epoch, and completes the iteration. Failures do not carry over:
// six iterations fail once each, more than a group may fail in a row, and
// the run completes.
func TestGroupRetriesAFailedAttempt(t *testing.T) {
	const k, s, m, iters = 4, 1, 6, 6
	const timeout = 300 * time.Millisecond
	fx := testkit.NewFixture(t, k, 12, 7)
	for _, groups := range []bool{false, true} {
		t.Run(map[bool]string{false: "flat", true: "groups=2"}[groups], func(t *testing.T) {
			slowFirst := func(_ int, wc *runtime.ElasticWorkerConfig) {
				seen := map[int]bool{}
				wc.Delay = func(iter int) time.Duration {
					if seen[iter] {
						return 0
					}
					seen[iter] = true
					return 10 * timeout // cut short by the retry's broadcast
				}
			}
			l := testkit.Start(t, fx, retryRoot(fx, s, iters, m, groups, timeout), m, slowFirst)
			out, err := l.Run(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if out.Iters != iters {
				t.Fatalf("%d iterations, want %d", out.Iters, iters)
			}
			for _, gs := range out.Groups {
				for iter := 0; iter < iters; iter++ {
					retried := false
					for _, ev := range gs.Replans {
						retried = retried || (ev.Iter == iter && ev.Reason == obs.ReasonChurn && ev.Epoch == gs.Epochs[iter])
					}
					if !retried {
						t.Fatalf("group %d iteration %d decoded under epoch %d, not under a churn migration at that iteration: %+v", gs.Group, iter, gs.Epochs[iter], gs.Replans)
					}
				}
			}
		})
	}
}

// TestGroupGivesUp: workers that never upload within IterTimeout make every
// attempt fail; the group gives up within its budget, and the run's error
// wraps ErrGroupFailed and names the last attempt's cause.
func TestGroupGivesUp(t *testing.T) {
	const k, s, m, iters = 4, 1, 6, 3
	const timeout = 300 * time.Millisecond
	fx := testkit.NewFixture(t, k, 12, 7)
	for _, groups := range []bool{false, true} {
		t.Run(map[bool]string{false: "flat", true: "groups=2"}[groups], func(t *testing.T) {
			late := func(_ int, wc *runtime.ElasticWorkerConfig) {
				wc.Delay = func(int) time.Duration { return 2 * timeout }
			}
			l := testkit.Start(t, fx, retryRoot(fx, s, iters, m, groups, timeout), m, late)
			if err := l.Root.WaitForWorkers(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err := l.Run(0)
			if !errors.Is(err, shard.ErrGroupFailed) {
				t.Fatalf("run err = %v, want ErrGroupFailed", err)
			}
			for _, want := range []string{"gave up on iteration 0", "undecodable"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("run err = %v, want it to hold %q", err, want)
				}
			}
			if elapsed := time.Since(start); elapsed > 10*timeout {
				t.Fatalf("giving up took %v, want about (retries+1)·IterTimeout + IterTimeout/2", elapsed)
			}
		})
	}
}
