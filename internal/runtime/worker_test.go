// Worker-unit tests: no root, no builder. The mailbox and receive-rule rows
// are in mailbox_test.go; every test that trains under a live root is in
// package runtime_test.
package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
)

func TestDialWorkerValidation(t *testing.T) {
	if _, err := DialElasticWorker("127.0.0.1:1", ElasticWorkerConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestReconnectPolicyBackoffSchedule(t *testing.T) {
	p := ReconnectPolicy{MaxAttempts: 6, Backoff: 10 * time.Millisecond, MaxBackoff: 35 * time.Millisecond}
	want := []time.Duration{10, 20, 35, 35, 35}
	for i, w := range want {
		if got := p.wait(i + 1); got != w*time.Millisecond {
			t.Fatalf("wait(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	var zero ReconnectPolicy
	if zero.attempts() != 1 || zero.wait(1) != 0 {
		t.Fatalf("zero policy: attempts=%d wait=%v, want 1 and 0", zero.attempts(), zero.wait(1))
	}
}

// An addrs that names no root yet — a pool between clusters, which node's
// static roster never is — keeps the loop waiting, asking once a cycle;
// closing stop ends it with nil.
func TestFollowWaitsForAnAddress(t *testing.T) {
	var asked atomic.Int32
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Follow(ElasticWorkerConfig{}, func() []string { asked.Add(1); return nil }, 0, nil, stop)
	}()
	if !waitUntil(5*time.Second, func() bool { return asked.Load() >= 3 }) {
		t.Fatalf("addrs asked %d times in 5s, want once a cycle", asked.Load())
	}
	select {
	case err := <-done:
		t.Fatalf("Follow returned %v with no address and stop open", err)
	default:
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Follow after stop = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow still running 5s after stop closed")
	}
}

// With maxCycles set, a port nothing listens on fails every cycle, and the
// loop returns the last dial error.
func TestFollowReturnsLastDialError(t *testing.T) {
	cfg := ElasticWorkerConfig{Model: &ml.Softmax{InputDim: 2, NumClasses: 2}, DialTimeout: 200 * time.Millisecond}
	_, want := DialElasticWorker("127.0.0.1:1", cfg)
	if want == nil {
		t.Fatal("dial against a dead port succeeded")
	}
	cycles := 0
	err := Follow(cfg, func() []string { cycles++; return []string{"127.0.0.1:1"} }, 2, nil, nil)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Follow = %v, want the dial error %v", err, want)
	}
	if cycles != 2 {
		t.Fatalf("Follow ran %d cycles, want maxCycles = 2", cycles)
	}
}

// waitUntil polls cond every 5ms until it holds or the timeout expires;
// returns whether it held.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}
