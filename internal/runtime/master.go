// Package runtime is the real distributed BSP training runtime: a Master
// that assigns coded partitions, broadcasts parameters, collects coded
// gradients and decodes the aggregated gradient at the earliest decodable
// moment, and a Worker that computes, encodes and uploads partial gradients
// — the production counterpart of the paper's PyTorch deployment, exercised
// over TCP loopback in tests and examples.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/transport"
)

// Errors returned by the runtime.
var (
	// ErrBadConfig marks invalid runtime configurations.
	ErrBadConfig = errors.New("runtime: invalid config")
	// ErrIterationTimeout is returned when an iteration cannot be decoded
	// before the deadline.
	ErrIterationTimeout = errors.New("runtime: iteration deadline exceeded before decodable")
	// ErrTooFewWorkers is returned as soon as permanently dead workers make
	// decoding impossible for every remaining straggler pattern — failing
	// fast instead of burning the full iteration timeout.
	ErrTooFewWorkers = errors.New("runtime: too few live workers to ever decode")
)

// MasterConfig configures a training master.
type MasterConfig struct {
	// Strategy is the gradient coding strategy (defines m, k, B).
	Strategy *core.Strategy
	// Model is the model being trained; only Dim() is used by the master for
	// sanity checks, optimisation state lives in Optimizer.
	Model ml.Model
	// Optimizer applies decoded gradients to the parameter vector.
	Optimizer ml.Optimizer
	// InitialParams seeds the parameter vector (length Model.Dim()).
	InitialParams []float64
	// Iterations is the number of BSP iterations to run.
	Iterations int
	// SampleCount scales gradients to means (the total training-set size).
	SampleCount int
	// IterTimeout bounds each iteration's wait for a decodable set.
	IterTimeout time.Duration
	// LossEvery, when > 0 together with LossFn, records the loss every that
	// many iterations.
	LossEvery int
	// LossFn evaluates the current parameters (e.g. mean training loss).
	LossFn func(params []float64) (float64, error)
}

func (c *MasterConfig) validate() error {
	if c.Strategy == nil || c.Model == nil || c.Optimizer == nil {
		return fmt.Errorf("%w: strategy/model/optimizer required", ErrBadConfig)
	}
	if len(c.InitialParams) != c.Model.Dim() {
		return fmt.Errorf("%w: %d initial params, model wants %d", ErrBadConfig, len(c.InitialParams), c.Model.Dim())
	}
	if c.Iterations <= 0 || c.SampleCount <= 0 {
		return fmt.Errorf("%w: iterations=%d samples=%d", ErrBadConfig, c.Iterations, c.SampleCount)
	}
	if c.IterTimeout <= 0 {
		return fmt.Errorf("%w: iteration timeout required", ErrBadConfig)
	}
	return nil
}

// MasterResult summarises a training run.
type MasterResult struct {
	// Params are the final parameters.
	Params []float64
	// IterTimes are the per-iteration wall times in seconds.
	IterTimes []float64
	// Summary summarises IterTimes.
	Summary metrics.Summary
	// Curve is (cumulative seconds, loss) when loss recording was enabled.
	Curve metrics.Series
	// StragglersSkipped counts worker results that arrived after decode and
	// were discarded.
	StragglersSkipped int
	// MalformedSkipped counts uploads rejected before decode (wrong length,
	// NaN/Inf payloads, frames failing transport validation); the sender is
	// treated as a straggler for that iteration.
	MalformedSkipped int
	// PerWorker aggregates each worker's participation. This master keeps
	// one code for the whole run; ElasticMaster is the runtime that re-codes
	// to observed speeds.
	PerWorker []WorkerStats
}

// WorkerStats summarises one worker's behaviour over a run.
type WorkerStats struct {
	// Uploads counts gradients accepted in time for their iteration.
	Uploads int
	// Used counts iterations where the worker's gradient carried a non-zero
	// decoding coefficient.
	Used int
	// MeanLatency is the mean seconds from parameter broadcast to accepted
	// upload (0 when the worker never arrived in time).
	MeanLatency float64
}

type workerGradient struct {
	workerID  int
	iter      int
	vec       []float64
	err       error
	malformed bool // frame failed transport validation; connection still live
}

// Master runs the BSP loop over connected workers.
type Master struct {
	cfg      MasterConfig
	listener *transport.Listener
	conns    []*transport.Conn
	inbox    chan workerGradient
	readers  sync.WaitGroup
}

// NewMaster validates the config and prepares a master listening on addr
// (use "127.0.0.1:0" for tests).
func NewMaster(cfg MasterConfig, addr string) (*Master, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &Master{
		cfg:      cfg,
		listener: l,
		inbox:    make(chan workerGradient, cfg.Strategy.M()),
	}, nil
}

// Addr returns the address workers should dial.
func (ma *Master) Addr() string { return ma.listener.Addr() }

// WaitForWorkers accepts exactly m worker connections, assigns worker IDs in
// connection order and sends each its partition assignment and coding row.
func (ma *Master) WaitForWorkers(timeout time.Duration) error {
	st := ma.cfg.Strategy
	alloc := st.Allocation()
	deadline := time.Now().Add(timeout)
	for id := 0; id < st.M(); id++ {
		conn, err := ma.listener.Accept()
		if err != nil {
			return err
		}
		if err := conn.SetDeadline(deadline); err != nil {
			return err
		}
		hello, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("worker %d hello: %w", id, err)
		}
		if hello.Type != transport.MsgHello {
			return fmt.Errorf("%w: expected hello, got %v", ErrBadConfig, hello.Type)
		}
		row := st.Row(id)
		parts := alloc.Parts[id]
		coeffs := make([]float64, len(parts))
		for i, p := range parts {
			coeffs[i] = row[p]
		}
		assign := &transport.Assignment{
			WorkerID:   id,
			Partitions: append([]int(nil), parts...),
			RowCoeffs:  coeffs,
			K:          st.K(),
			S:          st.S(),
		}
		if err := conn.Send(&transport.Envelope{Type: transport.MsgAssign, Assign: assign}); err != nil {
			return err
		}
		if err := conn.SetDeadline(time.Time{}); err != nil {
			return err
		}
		ma.conns = append(ma.conns, conn)
	}
	// One reader goroutine per worker feeds the shared inbox.
	for id, conn := range ma.conns {
		ma.readers.Add(1)
		go func(id int, conn *transport.Conn) {
			defer ma.readers.Done()
			for {
				env, err := conn.Recv()
				if err != nil {
					if errors.Is(err, transport.ErrMalformed) {
						// The gob stream is still in sync: drop the frame,
						// treat the worker as a straggler, keep reading.
						ma.inbox <- workerGradient{workerID: id, malformed: true}
						continue
					}
					ma.inbox <- workerGradient{workerID: id, err: err}
					return
				}
				if env.Type != transport.MsgGradient {
					continue
				}
				ma.inbox <- workerGradient{workerID: id, iter: env.Iter, vec: env.Vector}
			}
		}(id, conn)
	}
	return nil
}

// Run executes the BSP training loop and shuts the workers down.
func (ma *Master) Run() (*MasterResult, error) {
	defer ma.Close()
	st := ma.cfg.Strategy
	m := st.M()
	params := append([]float64(nil), ma.cfg.InitialParams...)
	res := &MasterResult{Curve: metrics.Series{Name: st.Kind().String()}}
	clock := 0.0
	if ma.cfg.LossFn != nil {
		if l, err := ma.cfg.LossFn(params); err == nil {
			res.Curve.Append(0, l)
		}
	}
	dead := make([]bool, m) // workers whose connection failed permanently
	latSum := make([]float64, m)
	uploads := make([]int, m)
	used := make([]int, m)
	g := grad.GetBuffer(ma.cfg.Model.Dim()) // the decoded gradient, reused every iteration
	defer grad.PutBuffer(g)

	for iter := 0; iter < ma.cfg.Iterations; iter++ {
		start := time.Now()
		for id, conn := range ma.conns {
			if dead[id] {
				continue
			}
			// Write deadline: a stalled (but not disconnected) worker fails
			// the broadcast and is treated as dead instead of blocking the
			// loop on a full socket buffer.
			_ = conn.SetWriteDeadline(time.Now().Add(ma.cfg.IterTimeout))
			env := &transport.Envelope{Type: transport.MsgParams, Iter: iter, Vector: params}
			err := conn.Send(env)
			_ = conn.SetWriteDeadline(time.Time{})
			if err != nil {
				dead[id] = true
			}
		}
		coded := make([]grad.Gradient, m)
		alive := make([]bool, m)
		if !decodableBestCase(ma.cfg.Strategy, dead, alive) {
			return nil, fmt.Errorf("%w: iteration %d", ErrTooFewWorkers, iter)
		}
		var coeffs []float64
		deadline := time.NewTimer(ma.cfg.IterTimeout)
	collect:
		for {
			select {
			case wg := <-ma.inbox:
				if wg.malformed {
					res.MalformedSkipped++
					continue
				}
				if wg.err != nil {
					dead[wg.workerID] = true
					// Fail fast: if even the arrival of every remaining live
					// worker could no longer decode, waiting out the timer
					// cannot help.
					if !decodableBestCase(ma.cfg.Strategy, dead, alive) {
						deadline.Stop()
						return nil, fmt.Errorf("%w: iteration %d", ErrTooFewWorkers, iter)
					}
					continue
				}
				if len(wg.vec) != ma.cfg.Model.Dim() || infOrNaN(wg.vec) {
					// Malformed upload (checked before staleness so the count
					// is independent of arrival timing): treat the worker as
					// a straggler rather than poisoning the decode.
					res.MalformedSkipped++
					continue
				}
				if wg.iter != iter {
					res.StragglersSkipped++
					continue
				}
				coded[wg.workerID] = wg.vec
				alive[wg.workerID] = true
				latSum[wg.workerID] += time.Since(start).Seconds()
				uploads[wg.workerID]++
				cs, err := st.Decode(alive)
				if err == nil {
					coeffs = cs
					break collect
				}
			case <-deadline.C:
				deadline.Stop()
				return nil, fmt.Errorf("%w: iteration %d", ErrIterationTimeout, iter)
			}
		}
		deadline.Stop()

		for w, c := range coeffs {
			if c != 0 {
				used[w]++
			}
		}
		if err := grad.CombineInto(g, coeffs, coded); err != nil {
			return nil, fmt.Errorf("iteration %d combine: %w", iter, err)
		}
		g.Scale(1 / float64(ma.cfg.SampleCount))
		if err := ma.cfg.Optimizer.Step(params, g); err != nil {
			return nil, fmt.Errorf("iteration %d step: %w", iter, err)
		}
		elapsed := time.Since(start).Seconds()
		clock += elapsed
		res.IterTimes = append(res.IterTimes, elapsed)
		if ma.cfg.LossFn != nil && ma.cfg.LossEvery > 0 && (iter+1)%ma.cfg.LossEvery == 0 {
			if l, err := ma.cfg.LossFn(params); err == nil {
				res.Curve.Append(clock, l)
			}
		}
	}
	res.Params = params
	res.Summary = metrics.Summarize(res.IterTimes)
	res.PerWorker = make([]WorkerStats, m)
	for w := 0; w < m; w++ {
		ws := WorkerStats{Uploads: uploads[w], Used: used[w]}
		if uploads[w] > 0 {
			ws.MeanLatency = latSum[w] / float64(uploads[w])
		}
		res.PerWorker[w] = ws
	}
	return res, nil
}

// Close shuts down workers and the listener. Safe to call multiple times.
func (ma *Master) Close() {
	for _, conn := range ma.conns {
		_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
		_ = conn.Send(&transport.Envelope{Type: transport.MsgShutdown})
	}
	for _, conn := range ma.conns {
		_ = conn.Close()
	}
	_ = ma.listener.Close()
	// Readers exit on connection errors; drain so they can post.
	done := make(chan struct{})
	go func() {
		ma.readers.Wait()
		close(done)
	}()
	for {
		select {
		case <-ma.inbox:
		case <-done:
			return
		}
	}
}

// decodableBestCase reports whether decode could still succeed if every
// non-dead worker eventually arrived — arrived uploads from since-dead
// workers still count for the current iteration.
func decodableBestCase(st *core.Strategy, dead, arrived []bool) bool {
	mask := make([]bool, len(dead))
	for i := range mask {
		mask[i] = arrived[i] || !dead[i]
	}
	return st.CanDecode(mask)
}

// infOrNaN guards against poisoned vectors from the wire.
func infOrNaN(v []float64) bool { return grad.InfOrNaN(v) }
