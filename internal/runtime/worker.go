package runtime

import (
	"fmt"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/transport"
)

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Model computes partial gradients.
	Model ml.Model
	// PartitionData returns the dataset shard for a global partition index.
	// In a real deployment each worker loads only its shards; on loopback it
	// slices the shared dataset.
	PartitionData func(partition int) (*ml.Dataset, error)
	// Delay, when non-nil, returns an artificial extra delay injected before
	// uploading each iteration's gradient — the paper's fault-simulation
	// hook ("stragglers are created artificially by adding delay").
	Delay func(iter int) time.Duration
	// DialTimeout bounds the initial connection.
	DialTimeout time.Duration
}

// Worker is a connected gradient-coding worker.
type Worker struct {
	cfg    WorkerConfig
	conn   *transport.Conn
	assign *transport.Assignment
	parts  []*ml.Dataset
}

// DialWorker connects to the master, performs the hello/assignment
// handshake and resolves its data partitions.
func DialWorker(addr string, cfg WorkerConfig) (*Worker, error) {
	if cfg.Model == nil || cfg.PartitionData == nil {
		return nil, fmt.Errorf("%w: worker needs model and partition data", ErrBadConfig)
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(&transport.Envelope{Type: transport.MsgHello}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	env, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if env.Type != transport.MsgAssign || env.Assign == nil {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: expected assignment, got %v", ErrBadConfig, env.Type)
	}
	w := &Worker{cfg: cfg, conn: conn, assign: env.Assign}
	for _, p := range env.Assign.Partitions {
		d, err := cfg.PartitionData(p)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("worker %d partition %d: %w", env.Assign.WorkerID, p, err)
		}
		w.parts = append(w.parts, d)
	}
	return w, nil
}

// ID returns the assigned worker index.
func (w *Worker) ID() int { return w.assign.WorkerID }

// Run processes parameter broadcasts until shutdown or connection loss:
// for every iteration it computes the partial gradients of its partitions,
// encodes them with its coding row and uploads the coded gradient.
func (w *Worker) Run() error {
	defer w.conn.Close()
	for {
		env, err := w.conn.Recv()
		if err != nil {
			return err
		}
		switch env.Type {
		case transport.MsgShutdown:
			return nil
		case transport.MsgParams:
			coded, err := w.computeCoded(env.Vector)
			if err != nil {
				return fmt.Errorf("worker %d iter %d: %w", w.ID(), env.Iter, err)
			}
			if w.cfg.Delay != nil {
				if d := w.cfg.Delay(env.Iter); d > 0 {
					time.Sleep(d)
				}
			}
			out := &transport.Envelope{
				Type:     transport.MsgGradient,
				Iter:     env.Iter,
				WorkerID: w.ID(),
				Vector:   coded,
			}
			err = w.conn.Send(out)
			// Send serialises synchronously, so the coded buffer can go
			// straight back to the pool.
			grad.PutBuffer(coded)
			if err != nil {
				return err
			}
		default:
			// Ignore unexpected frames; the master drives the protocol.
		}
	}
}

// computeCoded evaluates g̃ = Σ_j b_j·g_j over the worker's partitions into
// a pooled buffer (recycled by Run after the upload).
func (w *Worker) computeCoded(params []float64) ([]float64, error) {
	partials := make([]grad.Gradient, len(w.parts))
	for i, d := range w.parts {
		g, err := w.cfg.Model.Gradient(params, d)
		if err != nil {
			return nil, err
		}
		partials[i] = g
	}
	coded := grad.GetBuffer(len(params))
	err := grad.EncodeInto(coded, w.assign.RowCoeffs, partials)
	// The partials are this worker's (ml.Model.Gradient's contract) and are
	// folded into coded: back to the pool they came from.
	for _, p := range partials {
		grad.PutBuffer(p)
	}
	if err != nil {
		grad.PutBuffer(coded)
		return nil, err
	}
	return coded, nil
}
