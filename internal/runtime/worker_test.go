// Worker-unit tests: no root, no builder. The mailbox and receive-rule rows
// are in mailbox_test.go; every test that trains under a live root is in
// package runtime_test.
package runtime

import (
	"errors"
	"testing"
	"time"
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
