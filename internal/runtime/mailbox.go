package runtime

import (
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/transport"
)

// mailbox is an elastic worker's receive queue: the receive goroutine (the
// connection's sole reader) puts frames in, the run loop takes them out.
// Control frames — MsgReassign, MsgShutdown — keep their arrival order; of
// the parameter broadcasts only the newest is kept. The master broadcasts
// again only after it has closed the iteration of the broadcast before
// (decoded it, or given up on its epoch and migrated), so an older broadcast
// asks for a gradient roster.admit would reject at its iteration or epoch
// fence: its vector goes back to the gradient pool uncomputed, and an
// iteration already under way is abandoned (see ElasticWorker.iterate).
//
// A reassignment is never reordered around the broadcasts on either side of
// it: a superseded broadcast is removed, the newest is appended behind every
// control frame that arrived before it.
type mailbox struct {
	mu sync.Mutex
	// queue holds the pending frames, oldest first: any number of control
	// frames and at most one MsgParams. The backing array is reused, so a
	// steady-state put and take allocate nothing.
	queue []*transport.Envelope
	// err is the receive error that ended the connection; next reports it
	// once the queue has drained.
	err error
	// wake holds one token whenever the queue or err changed since the run
	// loop last looked. Capacity 1: the token says "look again", not how
	// many frames arrived.
	wake chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{wake: make(chan struct{}, 1)}
}

// receive reads conn into the mailbox until the connection fails.
func (m *mailbox) receive(conn *transport.Conn) {
	for {
		env, err := conn.Recv()
		if err != nil {
			m.mu.Lock()
			m.err = err
			m.mu.Unlock()
			m.signal()
			return
		}
		m.put(env)
	}
}

// put queues one received frame. Frames the worker has no use for are
// dropped here; the master drives the protocol.
func (m *mailbox) put(env *transport.Envelope) {
	switch env.Type {
	case transport.MsgParams:
		m.mu.Lock()
		for i, q := range m.queue {
			if q.Type == transport.MsgParams {
				grad.PutBuffer(q.Vector)
				m.removeLocked(i)
				break
			}
		}
		m.queue = append(m.queue, env)
		m.mu.Unlock()
	case transport.MsgReassign, transport.MsgShutdown:
		m.mu.Lock()
		m.queue = append(m.queue, env)
		m.mu.Unlock()
	default:
		grad.PutBuffer(env.Vector)
		return
	}
	m.signal()
}

// removeLocked deletes queue[i], keeping the order and the backing array.
func (m *mailbox) removeLocked(i int) {
	last := len(m.queue) - 1
	copy(m.queue[i:], m.queue[i+1:])
	m.queue[last] = nil
	m.queue = m.queue[:last]
}

func (m *mailbox) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// next blocks until a frame is queued and returns the oldest; once the
// connection has failed and the queue is empty it returns the receive error.
func (m *mailbox) next() (*transport.Envelope, error) {
	for {
		m.mu.Lock()
		if len(m.queue) > 0 {
			env := m.queue[0]
			m.removeLocked(0)
			m.mu.Unlock()
			return env, nil
		}
		err := m.err
		m.mu.Unlock()
		if err != nil {
			return nil, err
		}
		<-m.wake
	}
}

// superseded reports whether a parameter broadcast is queued — one newer
// than whatever the run loop took last.
func (m *mailbox) superseded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, q := range m.queue {
		if q.Type == transport.MsgParams {
			return true
		}
	}
	return false
}

// sleep waits for d, or until a parameter broadcast is queued, and reports
// whether it slept the whole of d. A token it consumes on the way costs next
// nothing: next looks at the queue before it waits for one.
func (m *mailbox) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			return true
		case <-m.wake:
			if m.superseded() {
				return false
			}
		}
	}
}

// dismissed reads the stream to its end and reports whether it holds a
// MsgShutdown, dropping every other frame on the way. It is for a run loop
// whose connection is gone, so the end is near.
func (m *mailbox) dismissed() bool {
	for {
		env, err := m.next()
		if err != nil {
			return false
		}
		if env.Type == transport.MsgShutdown {
			return true
		}
		grad.PutBuffer(env.Vector)
	}
}

// drain empties the queue once the receive goroutine has exited, handing the
// vector of a broadcast nobody computed back to the pool.
func (m *mailbox) drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, q := range m.queue {
		grad.PutBuffer(q.Vector)
		m.queue[i] = nil
	}
	m.queue = m.queue[:0]
}
