package transport

// Pipeline is a single-slot upload pipeline: Submit hands a job (one
// iteration's sends) to a writer goroutine and returns, so the caller's next
// iteration overlaps this one's upload. At most one job waits behind the
// running one; a third Submit blocks until the writer takes the waiting job.
// The writer is the sole writer of whatever connection the jobs send on.
//
// The first job error is sticky: every later Submit returns it and drops its
// job, while jobs already queued still run (they fail fast on the dead
// connection and release the pooled buffers they hold). The zero value is
// ready to use; Submit and Close belong to one goroutine, and no Submit may
// follow Close.
type Pipeline struct {
	jobs   chan func() error
	fail   chan error // the writer's first error, capacity 1
	done   chan struct{}
	closed bool
	err    error // the first error, once the submitting goroutine saw it
}

// Submit queues job behind the running one, or returns the first error an
// earlier job reported without queueing job.
func (p *Pipeline) Submit(job func() error) error {
	if err := p.failed(); err != nil {
		return err
	}
	if p.jobs == nil {
		p.start()
	}
	p.jobs <- job
	return nil
}

// Close waits for every queued job to finish and returns the first error a
// job reported. Closing twice is a no-op.
func (p *Pipeline) Close() error {
	if p.jobs != nil && !p.closed {
		p.closed = true
		close(p.jobs)
		<-p.done
	}
	return p.failed()
}

func (p *Pipeline) start() {
	jobs, fail, done := make(chan func() error, 1), make(chan error, 1), make(chan struct{})
	p.jobs, p.fail, p.done = jobs, fail, done
	go func() {
		defer close(done)
		failed := false
		for job := range jobs {
			if err := job(); err != nil && !failed {
				failed = true
				fail <- err
			}
		}
	}()
}

// failed latches the writer's first error, if it reported one.
func (p *Pipeline) failed() error {
	if p.err == nil && p.fail != nil {
		select {
		case p.err = <-p.fail:
		default:
		}
	}
	return p.err
}
