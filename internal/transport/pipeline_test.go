package transport

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestPipelineStickyError: the first job error comes back from the next
// Submit, which drops its job, and from every Submit and Close after it —
// a later, different failure never replaces it.
func TestPipelineStickyError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	var p Pipeline
	var ran atomic.Int32
	// The first job fails only once the second is queued: a Submit that saw
	// its error first would drop the second job.
	release := make(chan struct{})
	if err := p.Submit(func() error { <-release; ran.Add(1); return first }); err != nil {
		t.Fatal(err)
	}
	// The writer runs jobs in order: once the second one ran, the first
	// one's error has been reported.
	secondRan := make(chan struct{})
	if err := p.Submit(func() error { ran.Add(1); close(secondRan); return second }); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-secondRan
	for i := 0; i < 2; i++ {
		if err := p.Submit(func() error { ran.Add(1); return nil }); !errors.Is(err, first) {
			t.Fatalf("Submit %d after the failure = %v, want %v", i, err, first)
		}
	}
	if err := p.Close(); !errors.Is(err, first) {
		t.Fatalf("Close = %v, want %v", err, first)
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d jobs ran, want only the two submitted before the failure was seen", n)
	}
}

// TestPipelineRunsJobsQueuedAfterFailure: a job already waiting behind a
// failing one still runs, so whatever pooled buffer it holds is released.
func TestPipelineRunsJobsQueuedAfterFailure(t *testing.T) {
	var p Pipeline
	release := make(chan struct{})
	released := false
	if err := p.Submit(func() error { <-release; return errors.New("dead connection") }); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(func() error { released = true; return errors.New("dead connection") }); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := p.Close(); err == nil {
		t.Fatal("Close reported no error after two failed jobs")
	}
	if !released {
		t.Fatal("the job queued behind the failure never ran")
	}
}

// TestPipelineCloseWaitsForLastJob: Close returns only after the last
// queued job finished.
func TestPipelineCloseWaitsForLastJob(t *testing.T) {
	var p Pipeline
	var finished atomic.Bool
	for i := 0; i < 3; i++ {
		last := i == 2
		if err := p.Submit(func() error {
			time.Sleep(10 * time.Millisecond)
			if last {
				finished.Store(true)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("Close returned before the last job finished")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestPipelineSingleSlot: with one job running and one waiting, a third
// Submit blocks until the running job finishes.
func TestPipelineSingleSlot(t *testing.T) {
	var p Pipeline
	started, release := make(chan struct{}), make(chan struct{})
	if err := p.Submit(func() error { close(started); <-release; return nil }); err != nil {
		t.Fatal(err)
	}
	<-started // the writer holds the first job: the slot is free
	if err := p.Submit(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	third := make(chan error, 1)
	go func() { third <- p.Submit(func() error { return nil }) }()
	select {
	case err := <-third:
		t.Fatalf("third Submit returned (%v) while one job ran and one waited", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-third:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third Submit still blocked after the running job finished")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
