package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/transport"
)

// ledgerDim is a vector length no other test of this package uses, and none
// within a factor of two of it: grad.GetBuffer serves a request only from
// buffers of at most twice its length, so the pooled buffers of this length
// are the mailbox tests' own.
const ledgerDim = 1000

// poolLedger checks the gradient pool's balance by identity, on the real
// pool: it seeds the pool with buffers it knows, so that every ledgerDim
// vector the code under test takes — a received broadcast, a partition
// gradient, a coded buffer — is one of them, and afterwards counts the ones
// that did not come back.
type poolLedger map[*float64]bool

// drainPool takes every pooled buffer of ledgerDim out of the pool (the pool
// holds at most 64 buffers of all sizes).
func drainPool() poolLedger {
	got := poolLedger{}
	for i := 0; i < 64; i++ {
		b := grad.GetBuffer(ledgerDim)
		got[&b[0]] = true
	}
	return got
}

func seedPool(n int) poolLedger {
	drainPool()
	l := poolLedger{}
	for i := 0; i < n; i++ {
		b := make(grad.Gradient, ledgerDim)
		l[&b[0]] = true
		grad.PutBuffer(b)
	}
	return l
}

// missing is the number of seeded buffers that are not back in the pool.
func (l poolLedger) missing() int {
	n, pooled := 0, drainPool()
	for b := range l {
		if !pooled[b] {
			n++
		}
	}
	return n
}

// TestMailboxOrder pins the queue discipline on the mailbox alone. Ops: "P"
// puts a parameter broadcast (numbered from 0, tagged with the epoch of the
// last reassignment), "R" a reassignment to the next epoch, "S" a shutdown,
// "G" a frame the worker has no use for (a gradient, with a vector), "E"
// fails the connection, "t" takes one frame. Whatever is still queued after
// the ops is taken at the end; want lists every frame taken, in order.
func TestMailboxOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  string
		want string
		// pooled are the broadcasts whose vectors must be back in the pool,
		// uncomputed; every other broadcast must be among those taken.
		pooled []int
		err    bool
	}{
		{name: "in order when nothing is superseded", ops: "P t R t P t", want: "P0 R1 P1"},
		{name: "reassign stays behind an unsuperseded broadcast", ops: "P R", want: "P0 R1"},
		{name: "newest broadcast stays behind the reassign before it", ops: "P R P", want: "R1 P1", pooled: []int{0}},
		{name: "reassigns keep their order", ops: "R P R P P", want: "R1 R2 P2", pooled: []int{0, 1}},
		{name: "N broadcasts collapse to the newest", ops: "P P P P P P P P", want: "P7", pooled: []int{0, 1, 2, 3, 4, 5, 6}},
		{name: "the one being computed is not in the queue", ops: "P t P P", want: "P0 P2", pooled: []int{1}},
		{name: "shutdown after the queue", ops: "R P S", want: "R1 P0 S"},
		{name: "connection error after the queue", ops: "R P E", want: "R1 P0", err: true},
		{name: "unexpected frame dropped, vector pooled", ops: "G P G", want: "P1", pooled: []int{0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drainPool()
			m := newMailbox()
			var (
				vecs         []grad.Gradient
				got          []string
				epoch, taken int // the last reassignment put, and taken
			)
			vector := func() grad.Gradient {
				v := make(grad.Gradient, ledgerDim)
				vecs = append(vecs, v)
				return v
			}
			take := func() {
				env, err := m.next()
				if err != nil {
					t.Fatalf("next: %v with frames still queued", err)
				}
				switch env.Type {
				case transport.MsgParams:
					if env.Epoch != taken {
						t.Errorf("broadcast %d of epoch %d taken at epoch %d", env.Iter, env.Epoch, taken)
					}
					got = append(got, fmt.Sprintf("P%d", env.Iter))
				case transport.MsgReassign:
					taken = env.Epoch
					got = append(got, fmt.Sprintf("R%d", env.Epoch))
				case transport.MsgShutdown:
					got = append(got, "S")
				}
			}
			failure := errors.New("connection lost")
			for _, op := range strings.Fields(tc.ops) {
				switch op {
				case "P":
					m.put(&transport.Envelope{Type: transport.MsgParams, Iter: len(vecs), Epoch: epoch, Vector: vector()})
				case "G":
					m.put(&transport.Envelope{Type: transport.MsgGradient, Iter: len(vecs), Vector: vector()})
				case "R":
					epoch++
					m.put(&transport.Envelope{Type: transport.MsgReassign, Epoch: epoch})
				case "S":
					m.put(&transport.Envelope{Type: transport.MsgShutdown})
				case "E":
					m.mu.Lock()
					m.err = failure
					m.mu.Unlock()
					m.signal()
				case "t":
					take()
				}
			}
			for len(got) < len(strings.Fields(tc.want)) {
				take()
			}
			if g := strings.Join(got, " "); g != tc.want {
				t.Fatalf("took %q, want %q", g, tc.want)
			}
			if tc.err {
				if _, err := m.next(); !errors.Is(err, failure) {
					t.Fatalf("next after the queue drained: %v, want the connection error", err)
				}
			} else if len(m.queue) != 0 {
				t.Fatalf("%d frames still queued", len(m.queue))
			}
			pooled, want := drainPool(), map[int]bool{}
			for _, i := range tc.pooled {
				want[i] = true
			}
			for i, v := range vecs {
				if pooled[&v[0]] != want[i] {
					t.Errorf("vector of frame %d: pooled = %v, want %v", i, pooled[&v[0]], want[i])
				}
			}
		})
	}
}

// TestMailboxConcurrent runs the two sides the way Run does — one goroutine
// putting, one taking — for the race detector, and checks what the taker may
// rely on: broadcasts arrive in increasing order, each under the epoch of the
// last reassignment taken, every reassignment is taken, in order, the newest
// broadcast is never the one dropped, and no vector handed over is pooled.
func TestMailboxConcurrent(t *testing.T) {
	const frames = 2000
	drainPool()
	m := newMailbox()
	go func() {
		epoch := 0
		for i := 0; i < frames; i++ {
			if i%7 == 0 {
				epoch++
				m.put(&transport.Envelope{Type: transport.MsgReassign, Epoch: epoch})
			}
			m.put(&transport.Envelope{Type: transport.MsgParams, Iter: i, Epoch: epoch, Vector: make(grad.Gradient, ledgerDim)})
		}
		m.put(&transport.Envelope{Type: transport.MsgShutdown})
	}()
	taken := map[*float64]bool{}
	epoch, last := 0, -1
	for done := false; !done; {
		env, err := m.next()
		if err != nil {
			t.Fatal(err)
		}
		switch env.Type {
		case transport.MsgReassign:
			if env.Epoch != epoch+1 {
				t.Fatalf("reassign to epoch %d taken after epoch %d", env.Epoch, epoch)
			}
			epoch = env.Epoch
		case transport.MsgParams:
			if env.Iter <= last || env.Epoch != epoch {
				t.Fatalf("broadcast %d (epoch %d) taken after broadcast %d at epoch %d", env.Iter, env.Epoch, last, epoch)
			}
			last = env.Iter
			taken[&env.Vector[0]] = true
			m.sleep(50 * time.Microsecond) // the run loop's other way of looking at the queue
		case transport.MsgShutdown:
			done = true
		}
	}
	if last != frames-1 {
		t.Fatalf("last broadcast taken is %d, want %d: the newest is never dropped", last, frames-1)
	}
	if want := (frames + 6) / 7; epoch != want {
		t.Fatalf("took %d reassignments, want %d", epoch, want)
	}
	// The pool keeps 64 buffers, so not every dropped vector can be found in
	// it; none may be both taken and pooled.
	for b := range drainPool() {
		if taken[b] {
			t.Fatal("a vector handed to the run loop is also in the pool")
		}
	}
}

// scriptModel is an ml.Model of ledgerDim parameters whose Gradient calls the
// test scripts: hook runs inside every call, numbered from 1.
type scriptModel struct {
	calls atomic.Int64
	hook  func(call int) error
}

func (s *scriptModel) Dim() int                                     { return ledgerDim }
func (s *scriptModel) InitParams(*rand.Rand) []float64              { return make([]float64, ledgerDim) }
func (s *scriptModel) Loss([]float64, *ml.Dataset) (float64, error) { return 0, nil }
func (s *scriptModel) Gradient(params []float64, _ *ml.Dataset) (grad.Gradient, error) {
	call := int(s.calls.Add(1))
	if s.hook != nil {
		if err := s.hook(call); err != nil {
			return nil, err
		}
	}
	g := grad.GetBuffer(len(params))
	for i := range g {
		g[i] = 1
	}
	return g, nil
}

// scriptCoder is scriptModel with the one-pass method: each pass is one call,
// counted and hooked as a Gradient call is, and writes ones.
type scriptCoder struct{ *scriptModel }

func (s scriptCoder) CodedGradient(dst grad.Gradient, _ []float64, _ []*ml.Dataset, _ []float64) error {
	call := int(s.calls.Add(1))
	if s.hook != nil {
		if err := s.hook(call); err != nil {
			return err
		}
	}
	for i := range dst {
		dst[i] = 1
	}
	return nil
}

// scriptedMaster is the master's end of one worker connection, driven frame
// by frame by the test.
type scriptedMaster struct {
	t    *testing.T
	conn *transport.Conn
	w    *ElasticWorker
	done chan error // Run's result
}

// upload is what the test keeps of a frame the worker sent; the vector goes
// straight back to the pool the transport took it from.
type upload struct {
	typ  transport.MsgType
	iter int
	tel  transport.Telemetry
}

func startScripted(t *testing.T, cfg ElasticWorkerConfig) *scriptedMaster {
	t.Helper()
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan *transport.Conn, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		_, err = conn.Recv()
		if err == nil {
			err = conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: 1})
		}
		if err != nil {
			_ = conn.Close()
			conn = nil
		}
		accepted <- conn
	}()
	if cfg.PartitionData == nil {
		cfg.PartitionData = func(int) (*ml.Dataset, error) { return &ml.Dataset{}, nil }
	}
	w, err := DialElasticWorker(lis.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn := <-accepted
	if conn == nil {
		t.Fatal("scripted master: handshake failed")
	}
	sm := &scriptedMaster{t: t, conn: conn, w: w, done: make(chan error, 1)}
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second)) // a broken script fails, it does not hang
	go func() { sm.done <- w.Run() }()
	return sm
}

func (sm *scriptedMaster) send(env *transport.Envelope) {
	sm.t.Helper()
	if err := sm.conn.Send(env); err != nil {
		sm.t.Fatalf("scripted master send %v: %v", env.Type, err)
	}
}

// reassign gives the worker n partitions under epoch.
func (sm *scriptedMaster) reassign(epoch, n int) {
	a := &transport.Assignment{K: n, Partitions: make([]int, n), RowCoeffs: make([]float64, n)}
	for i := range a.Partitions {
		a.Partitions[i], a.RowCoeffs[i] = i, 1
	}
	sm.send(&transport.Envelope{Type: transport.MsgReassign, Epoch: epoch, Assign: a})
}

func (sm *scriptedMaster) params(iter, epoch int) {
	sm.send(&transport.Envelope{Type: transport.MsgParams, Iter: iter, Epoch: epoch, Vector: make([]float64, ledgerDim)})
}

func (sm *scriptedMaster) recv() upload {
	sm.t.Helper()
	env, err := sm.conn.Recv()
	if err != nil {
		sm.t.Fatalf("scripted master recv: %v", err)
	}
	grad.PutBuffer(env.Vector)
	u := upload{typ: env.Type, iter: env.Iter}
	if env.Telemetry != nil {
		u.tel = *env.Telemetry
	}
	return u
}

// expect reads one frame from the worker and checks its type and iteration.
func (sm *scriptedMaster) expect(typ transport.MsgType, iter int) upload {
	sm.t.Helper()
	u := sm.recv()
	if u.typ != typ || u.iter != iter {
		sm.t.Fatalf("worker sent %v for iteration %d, want %v for iteration %d", u.typ, u.iter, typ, iter)
	}
	return u
}

// awaitSuperseded returns once the worker's mailbox holds a broadcast newer
// than the one it is computing.
func (sm *scriptedMaster) awaitSuperseded() {
	sm.t.Helper()
	if !waitUntil(10*time.Second, sm.w.box.superseded) {
		sm.t.Fatal("the newer broadcast never reached the worker's mailbox")
	}
}

// queued reports whether box holds a frame of type typ.
func queued(box *mailbox, typ transport.MsgType) bool {
	box.mu.Lock()
	defer box.mu.Unlock()
	for _, q := range box.queue {
		if q.Type == typ {
			return true
		}
	}
	return false
}

// failUpload makes w's next upload find an earlier one failed, as a send on
// a connection the root closed does. Call it from w's run loop (a model
// hook): the upload pipeline belongs to that goroutine.
func failUpload(w *ElasticWorker) {
	_ = w.up.Submit(func() error { return errors.New("scripted upload failure") })
	for {
		ran := make(chan struct{})
		if w.up.Submit(func() error { close(ran); return nil }) != nil {
			return // the failure is latched
		}
		<-ran
	}
}

// TestElasticWorkerReceiveRule drives one worker from a scripted master
// through every way an iteration can end and pins, for each, what the worker
// uploads, what its telemetry says, and that Run's exit leaves neither a
// goroutine nor a pooled vector behind.
func TestElasticWorkerReceiveRule(t *testing.T) {
	const parts = 3
	const hour = time.Hour
	onlyIter0 := func(iter int) time.Duration {
		if iter == 0 {
			return hour
		}
		return 0
	}
	for _, tc := range []struct {
		name   string
		cfg    func(m *scriptModel) ElasticWorkerConfig
		script func(t *testing.T, sm *scriptedMaster, m *scriptModel)
		// onePass gives the worker the model as a scriptCoder; plainToo
		// runs the row again, in the same subtest, on the plain scriptModel,
		// whose worker makes parts Gradient calls for each of the coder's
		// passes.
		onePass, plainToo bool
		// calls is the number of Gradient calls (one-pass: passes) the
		// worker must have made.
		calls   int
		wantErr string
	}{
		{
			name: "a broadcast for an epoch the worker is not in is dropped",
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				sm.reassign(3, parts)
				sm.params(0, 9)
				sm.send(&transport.Envelope{Type: transport.MsgShutdown})
			},
		},
		{
			name: "shutdown is delivered after the queue drains",
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				sm.reassign(0, parts)
				sm.params(0, 0)
				sm.send(&transport.Envelope{Type: transport.MsgShutdown})
				sm.expect(transport.MsgGradient, 0)
				if u := sm.expect(transport.MsgTelemetry, 0); u.tel.Partitions != parts || u.tel.ComputeSeconds <= 0 {
					t.Errorf("telemetry %+v, want %d partitions and a positive time", u.tel, parts)
				}
			},
			calls: parts,
		},
		{
			name: "a connection error is delivered after the queue drains",
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				sm.reassign(0, parts)
				sm.params(0, 0)
				_ = sm.conn.Close()
			},
			calls:   parts,
			wantErr: "transport recv",
		},
		{
			name: "an injected delay cut short reports the declared time",
			cfg: func(m *scriptModel) ElasticWorkerConfig {
				return ElasticWorkerConfig{Delay: onlyIter0, DelayPerPartition: onlyIter0}
			},
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				computed := make(chan struct{})
				m.hook = func(call int) error {
					if call == parts {
						close(computed)
					}
					return nil
				}
				sm.reassign(0, parts)
				sm.params(0, 0)
				<-computed // iteration 0 is in, or about to enter, its four-hour sleep
				sm.params(1, 0)
				// No gradient for the abandoned iteration: its telemetry is the
				// next frame, and it declares all the partitions and the whole
				// of what the hooks returned — not the moment the master moved on.
				u := sm.expect(transport.MsgTelemetry, 0)
				declared := (1 + parts) * hour.Seconds()
				if u.tel.Partitions != parts || u.tel.ComputeSeconds < declared || u.tel.ComputeSeconds > declared+hour.Seconds() {
					t.Errorf("abandoned delay reported %d partitions in %.0f s, want %d in the declared %.0f s", u.tel.Partitions, u.tel.ComputeSeconds, parts, declared)
				}
				sm.expect(transport.MsgGradient, 1)
				sm.expect(transport.MsgTelemetry, 1)
				sm.send(&transport.Envelope{Type: transport.MsgShutdown})
			},
			calls: 2 * parts,
		},
		{
			name: "a gradient finished for a closed iteration is not uploaded",
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				last, release := make(chan struct{}), make(chan struct{})
				m.hook = func(call int) error {
					if call == parts {
						close(last)
						<-release
					}
					return nil
				}
				sm.reassign(0, parts)
				start := time.Now()
				sm.params(0, 0)
				<-last // inside the one ml.CodedGradient call, before the worker's look at the mailbox after it
				sm.params(1, 0)
				sm.awaitSuperseded()
				close(release)
				// Telemetry only, and it reads as the completed iteration it is.
				u := sm.expect(transport.MsgTelemetry, 0)
				if wall := time.Since(start).Seconds(); u.tel.Partitions != parts || u.tel.ComputeSeconds <= 0 || u.tel.ComputeSeconds > wall {
					t.Errorf("closed iteration reported %d partitions in %v s, want %d in at most the %v s it could have taken", u.tel.Partitions, u.tel.ComputeSeconds, parts, wall)
				}
				sm.expect(transport.MsgGradient, 1)
				sm.expect(transport.MsgTelemetry, 1)
				sm.send(&transport.Envelope{Type: transport.MsgShutdown})
			},
			calls: 2 * parts,
		},
		{
			name: "a failed upload yields to a queued shutdown",
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				// A root that gave up: its shutdown is queued behind the
				// broadcast the worker computes when the worker finds its
				// previous upload failed on the connection the root closed.
				m.hook = func(call int) error {
					if call == 1 {
						if !waitUntil(10*time.Second, func() bool { return queued(sm.w.box, transport.MsgShutdown) }) {
							return errors.New("the shutdown never reached the mailbox")
						}
						failUpload(sm.w)
					}
					return nil
				}
				sm.reassign(0, parts)
				sm.params(0, 0)
				sm.send(&transport.Envelope{Type: transport.MsgShutdown})
				_ = sm.conn.Close()
			},
			calls: parts,
		},
		{
			name: "a gradient error returns the partials already computed",
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				m.hook = func(call int) error {
					if call == parts {
						return errors.New("scripted gradient failure")
					}
					return nil
				}
				sm.reassign(0, parts)
				sm.params(0, 0)
			},
			calls:   parts,
			wantErr: "scripted gradient failure",
		},
		{
			name:     "a one-pass computation closed while it runs reports every partition and the pass's time",
			onePass:  true,
			plainToo: true,
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				started, release := make(chan struct{}), make(chan struct{})
				m.hook = func(call int) error {
					if call == 1 {
						close(started)
						<-release
					}
					return nil
				}
				const held = 20 * time.Millisecond
				sm.reassign(0, parts)
				start := time.Now()
				sm.params(0, 0)
				<-started
				sm.params(1, 0)
				sm.awaitSuperseded()
				time.Sleep(held)
				close(release)
				// No gradient: the worker does not look at the mailbox during
				// the computation, so the closed iteration is found after it,
				// and reports as a completed one.
				u := sm.expect(transport.MsgTelemetry, 0)
				if wall := time.Since(start).Seconds(); u.tel.Partitions != parts || u.tel.ComputeSeconds < held.Seconds() || u.tel.ComputeSeconds > wall {
					t.Errorf("closed one-pass iteration reported %d partitions in %v s, want %d in at least the %v s held and at most the %v s it could have taken", u.tel.Partitions, u.tel.ComputeSeconds, parts, held.Seconds(), wall)
				}
				sm.expect(transport.MsgGradient, 1)
				sm.expect(transport.MsgTelemetry, 1)
				sm.send(&transport.Envelope{Type: transport.MsgShutdown})
			},
			calls: 2,
		},
		{
			name:    "a one-pass error returns the coded buffer",
			onePass: true,
			script: func(t *testing.T, sm *scriptedMaster, m *scriptModel) {
				m.hook = func(int) error { return errors.New("scripted pass failure") }
				sm.reassign(0, parts)
				sm.params(0, 0)
			},
			calls:   1,
			wantErr: "scripted pass failure",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(onePass bool, calls int) {
				base := goruntime.NumGoroutine()
				ledger := seedPool(16)
				model := &scriptModel{}
				var cfg ElasticWorkerConfig
				if tc.cfg != nil {
					cfg = tc.cfg(model)
				}
				cfg.Model = model
				if onePass {
					cfg.Model = scriptCoder{model}
				}
				sm := startScripted(t, cfg)
				tc.script(t, sm, model)
				err := <-sm.done
				_ = sm.conn.Close()
				switch {
				case tc.wantErr == "" && err != nil:
					t.Fatalf("Run: %v", err)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Fatalf("Run: %v, want an error holding %q", err, tc.wantErr)
				}
				if got := int(model.calls.Load()); got != calls {
					t.Errorf("one pass %v: %d Gradient calls, want %d", onePass, got, calls)
				}
				if n := ledger.missing(); n != 0 {
					t.Errorf("%d of the pool's %d vectors did not come back", n, len(ledger))
				}
				if !waitUntil(2*time.Second, func() bool { return goruntime.NumGoroutine() <= base }) {
					t.Fatalf("%d goroutines after Run returned, %d before the worker dialed", goruntime.NumGoroutine(), base)
				}
			}
			run(tc.onePass, tc.calls)
			if tc.plainToo {
				run(false, tc.calls*parts)
			}
		})
	}
}

// gradientOnly hides a model's one-pass method, so the worker computes one
// Gradient per partition and encodes them.
type gradientOnly struct{ ml.Model }

// TestElasticWorkerOnePassUpload holds a Softmax worker's raw upload, formed
// in one pass, to the upload of the same model through the per-partition
// path, bit for bit: partitions of one and two samples, and a zero
// coefficient.
func TestElasticWorkerOnePassUpload(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := &ml.Softmax{InputDim: 7, NumClasses: 3}
	data, err := ml.GaussianMixture(9, 7, 3, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Split(6)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, m.Dim())
	for i := range params {
		params[i] = r.NormFloat64()
	}
	a := &transport.Assignment{K: 6, Partitions: []int{0, 1, 2, 3, 4, 5}, RowCoeffs: []float64{0.5, -1.25, 0, 2, 0.75, -3}}
	upload := func(model ml.Model) grad.Gradient {
		sm := startScripted(t, ElasticWorkerConfig{
			Model:         model,
			PartitionData: func(p int) (*ml.Dataset, error) { return parts[p], nil },
		})
		sm.send(&transport.Envelope{Type: transport.MsgReassign, Epoch: 0, Assign: a})
		sm.send(&transport.Envelope{Type: transport.MsgParams, Iter: 0, Epoch: 0, Vector: params})
		env, err := sm.conn.Recv()
		if err != nil || env.Type != transport.MsgGradient {
			t.Fatalf("%T worker: got %v (err %v), want its gradient", model, env, err)
		}
		got := grad.Gradient(env.Vector).Clone()
		grad.PutBuffer(env.Vector)
		sm.expect(transport.MsgTelemetry, 0)
		sm.send(&transport.Envelope{Type: transport.MsgShutdown})
		if err := <-sm.done; err != nil {
			t.Fatalf("%T worker: Run: %v", model, err)
		}
		_ = sm.conn.Close()
		return got
	}
	onePass, perPartition := upload(m), upload(gradientOnly{m})
	if len(onePass) != m.Dim() || len(perPartition) != m.Dim() {
		t.Fatalf("uploads of %d and %d floats, want %d", len(onePass), len(perPartition), m.Dim())
	}
	for i := range onePass {
		if math.Float64bits(onePass[i]) != math.Float64bits(perPartition[i]) {
			t.Fatalf("upload[%d]: one pass %v, per partition %v", i, onePass[i], perPartition[i])
		}
	}
}
