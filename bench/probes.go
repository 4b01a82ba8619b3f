package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/dataplane"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/planner"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/transport"
)

// Layer probes: direct timed calls into each layer's public functions, sized
// like the workloads, reported as probe.<layer>.<name>. They are the
// microbenchmarks whose units match the lines of the budget: when a budget
// line moves, the probe of that layer says whether the layer itself moved.
// Dims 1e3 and 1e6 live here, not among the workloads, because their
// end-to-end rates do not repeat within a tenth on this box.

const probeDim = 100_000

// prober runs probes for `each` apiece and collects their medians.
type prober struct {
	each time.Duration
	out  map[string]metric
	err  error
}

// time calls op for p.each and records the median duration of one call,
// divided by per, under name. op's first error stops the probe and is kept.
func (p *prober) time(name, unit string, per float64, op func() error) {
	if p.err != nil {
		return
	}
	var samples []float64
	for begin := time.Now(); time.Since(begin) < p.each || len(samples) == 0; {
		start := time.Now()
		if err := op(); err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds()))
	}
	scale := 1.0
	if unit == "us" {
		scale = 1e-3
	}
	p.out[name] = metric{median(samples) * scale / per, unit}
}

func randomVector(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func equalRates(m int) []float64 {
	c := make([]float64, m)
	for i := range c {
		c[i] = 1
	}
	return c
}

// runProbes runs every layer probe for `each` and returns name -> value.
func runProbes(each time.Duration) (map[string]metric, error) {
	p := &prober{each: each, out: map[string]metric{}}
	rng := rand.New(rand.NewSource(1))
	tmp, err := os.MkdirTemp("", "hetgc-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	probePlanning(p, rng)
	probeKernels(p, rng)
	probeTransport(p, rng)
	probeRoster(p, rng)
	probeCheckpoint(p, rng, tmp)
	vecs := [][]float64{randomVector(probeDim, rng), randomVector(probeDim, rng)}
	tree := shard.NewTree(2, 2)
	p.time("probe.shard.tree_reduce_us", "us", 1, func() error {
		_, err := tree.Aggregate(vecs)
		return err
	})
	return p.out, p.err
}

// probePlanning: what a (re)plan costs at the workloads' cluster sizes, and
// a decode-plan lookup on either side of the cache.
func probePlanning(p *prober, rng *rand.Rand) {
	for _, m := range []int{4, 8} {
		m := m
		p.time(fmt.Sprintf("probe.planner.build_strategy_m%d_us", m), "us", 1, func() error {
			_, err := planner.BuildStrategy(core.HeterAware, equalRates(m), 2*m, 1, rng)
			return err
		})
	}
	const m = 8
	alive := make([]bool, m)
	pattern := func(i int) {
		for j := range alive {
			alive[j] = j != i%m
		}
	}
	for _, c := range []struct {
		name     string
		capacity int
	}{{"hit", 0}, {"miss", 1}} {
		st, err := planner.BuildStrategy(core.HeterAware, equalRates(m), 2*m, 1, rng)
		if err != nil {
			p.err = err
			return
		}
		// A one-entry cache under a rotating straggler misses on every call.
		st.SetDecodeCacheCapacity(c.capacity)
		i := 0
		p.time("probe.core.decode_"+c.name+"_us", "us", 1, func() error {
			pattern(i)
			i++
			_, err := st.Decode(alive)
			return err
		})
	}
}

// probeKernels: the encode/combine kernels and every codec's quantize and
// dequantize at the workloads' dim, per element.
func probeKernels(p *prober, rng *rand.Rand) {
	partials := make([]grad.Gradient, 4)
	for i := range partials {
		partials[i] = randomVector(probeDim, rng)
	}
	coeff := []float64{0.5, -1.25, 2, 0.75}
	dst := make(grad.Gradient, probeDim)
	p.time("probe.grad.encode_into_ns_per_elem", "ns/elem", probeDim, func() error {
		return grad.EncodeInto(dst, coeff, partials)
	})
	p.time("probe.grad.combine_into_ns_per_elem", "ns/elem", probeDim, func() error {
		return grad.CombineInto(dst, coeff[:3], partials[:3])
	})
	for c, name := range grad.CodecNames() {
		codec := grad.Codec(c)
		var payload []byte
		p.time("probe.grad.quantize_"+name+"_ns_per_elem", "ns/elem", probeDim, func() error {
			var err error
			payload, err = grad.AppendQuantized(payload[:0], codec, partials[0])
			return err
		})
		p.time("probe.grad.dequantize_"+name+"_ns_per_elem", "ns/elem", probeDim, func() error {
			_, err := grad.Dequantize(codec, payload, probeDim)
			return err
		})
	}
}

// pipe is a loopback connection pair whose far end acknowledges, in process,
// every message it has fully received, so a probe times send through decode.
type pipe struct {
	near, far *transport.Conn
	got       chan error
}

func newPipe() (*pipe, error) {
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer lis.Close()
	near, err := transport.Dial(lis.Addr(), time.Second)
	if err != nil {
		return nil, err
	}
	far, err := lis.Accept()
	if err != nil {
		near.Close()
		return nil, err
	}
	pp := &pipe{near: near, far: far, got: make(chan error)}
	go func() {
		var chunks []*transport.Envelope
		for {
			env, err := far.Recv()
			if err != nil {
				pp.got <- err
				return
			}
			if env.Chunks != 0 {
				chunks = append(chunks, env)
				if env.Chunk != env.Chunks-1 {
					continue
				}
				_, err = transport.JoinChunks(nil, chunks)
				chunks = chunks[:0]
			}
			pp.got <- err
		}
	}()
	return pp, nil
}

// close hangs up and waits for the far end's reader to exit.
func (pp *pipe) close() {
	pp.near.Close()
	<-pp.got
	pp.far.Close()
}

// probeTransport: one message sent, received and decoded over loopback TCP —
// the gob-framed params broadcast and raw and int8 gradient frames at three
// dims — and the chunked SendBatch uplink with and without trace context
// (the traced final chunk leaves the binary fast path for gob).
func probeTransport(p *prober, rng *rand.Rand) {
	pp, err := newPipe()
	if err != nil {
		p.err = err
		return
	}
	defer pp.close()
	roundTrip := func(send func() error) func() error {
		return func() error {
			if err := send(); err != nil {
				return err
			}
			return <-pp.got
		}
	}
	for _, d := range []struct {
		name string
		dim  int
	}{{"1e3", 1_000}, {"1e5", 100_000}, {"1e6", 1_000_000}} {
		vec := randomVector(d.dim, rng)
		quant, err := grad.AppendQuantized(nil, grad.CodecInt8, vec)
		if err != nil {
			p.err = err
			return
		}
		for _, f := range []struct {
			kind string
			env  *transport.Envelope
		}{
			{"params", &transport.Envelope{Type: transport.MsgParams, Vector: vec}},
			{"gradient", &transport.Envelope{Type: transport.MsgGradient, Vector: vec}},
			{"int8", &transport.Envelope{Type: transport.MsgGradient, Codec: byte(grad.CodecInt8), Quant: quant, QuantLen: d.dim}},
		} {
			env := f.env
			p.time("probe.transport."+f.kind+"_"+d.name+"_us", "us", 1, roundTrip(func() error { return pp.near.Send(env) }))
		}
	}
	vec := randomVector(probeDim, rng)
	spans := []transport.PhaseSpan{{Phase: obs.PhaseCompute, Seconds: 0.01}, {Phase: obs.PhaseEncode, Seconds: 0.001}}
	for _, c := range []struct {
		name string
		tmpl transport.Envelope
	}{{"untraced", transport.Envelope{}}, {"traced", transport.Envelope{Trace: obs.TraceID(1, 0, 1), Spans: spans}}} {
		tmpl := c.tmpl
		p.time("probe.transport.send_batch_"+c.name+"_us", "us", 1, roundTrip(func() error {
			return pp.near.SendBatch(transport.ChunkGradient(tmpl, vec, shard.DefaultChunkLen))
		}))
	}
}

// probeRoster: one BroadcastParams+Collect round of a roster.Engine against
// four workers that answer every broadcast at once with a fixed gradient,
// and one shard fetch from the same engine's data plane.
func probeRoster(p *prober, rng *rand.Rand) {
	const workers, k = 4, 8
	ctrl, err := elastic.NewController(elastic.Config{K: k, S: 1, DriftThreshold: 1e9}, rng)
	if err != nil {
		p.err = err
		return
	}
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		p.err = err
		return
	}
	shardData, err := ml.GaussianMixture(samplesPerPart, 9999, classes, 3, rng)
	if err != nil {
		p.err = err
		return
	}
	eng, err := roster.New(roster.Config{
		Controller: ctrl, WriteTimeout: iterTimeout, K: k, S: 1,
		PartitionBlob: dataplane.NewSource(func(int) (*ml.Dataset, error) { return shardData, nil }, k).Blob,
	}, lis)
	if err != nil {
		p.err = err
		return
	}
	done := make(chan struct{}, workers)
	defer func() {
		eng.Shutdown(true)
		for i := 0; i < workers; i++ {
			<-done
		}
	}()
	answer := randomVector(probeDim, rng)
	for i := 0; i < workers; i++ {
		conn, err := transport.Dial(eng.Addr(), time.Second)
		if err != nil {
			p.err = err
			return
		}
		go echoWorker(conn, answer, done)
	}
	if err := eng.WaitForMembers(workers, iterTimeout); err != nil {
		p.err = err
		return
	}
	plan, err := eng.Migrate(0, obs.ReasonInitial)
	if err != nil {
		p.err = err
		return
	}
	params := randomVector(probeDim, rng)
	var stats roster.Stats
	iter := 0
	p.time("probe.roster.broadcast_collect_us", "us", 1, func() error {
		eng.BroadcastParams(plan, iter, params)
		_, _, ok := eng.Collect(plan, iter, probeDim, iterTimeout, &stats)
		iter++
		if !ok {
			return fmt.Errorf("round %d did not decode", iter)
		}
		return nil
	})
	client := dataplane.NewClient(eng.Addr(), time.Second)
	defer client.Close()
	p.time("probe.dataplane.fetch_us", "us", 1, func() error {
		_, err := client.Fetch(0)
		return err
	})
}

// echoWorker speaks just enough of the elastic worker protocol to be a
// roster member: it joins, follows reassignments and answers every params
// broadcast with the same vector.
func echoWorker(conn *transport.Conn, answer []float64, done chan<- struct{}) {
	defer func() { conn.Close(); done <- struct{}{} }()
	if conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker}) != nil {
		return
	}
	ack, err := conn.Recv()
	if err != nil {
		return
	}
	epoch := -1
	for {
		env, err := conn.Recv()
		if err != nil || env.Type == transport.MsgShutdown {
			return
		}
		switch env.Type {
		case transport.MsgReassign:
			epoch = env.Epoch
		case transport.MsgParams:
			reply := &transport.Envelope{Type: transport.MsgGradient, Iter: env.Iter, Epoch: epoch, WorkerID: ack.WorkerID, RootGen: env.RootGen, Vector: answer}
			if conn.Send(reply) != nil {
				return
			}
		}
	}
}

// probeCheckpoint: the journal append and snapshot write an iteration pays,
// the recovery a resume pays, and a lease renewal.
func probeCheckpoint(p *prober, rng *rand.Rand, tmp string) {
	dir := filepath.Join(tmp, "ckpt")
	store, err := checkpoint.Create(dir)
	if err != nil {
		p.err = err
		return
	}
	defer store.Close()
	iter := 0
	p.time("probe.checkpoint.append_iter_us", "us", 1, func() error {
		iter++
		return store.AppendIter(iter, 0, iter)
	})
	snap := &checkpoint.Snapshot{
		Epoch: 0, Params: randomVector(probeDim, rng), OptVecs: [][]float64{randomVector(probeDim, rng)},
		Groups: []checkpoint.GroupState{{Group: 0, Epoch: 0, Members: []int{1, 2, 3, 4}}},
	}
	p.time("probe.checkpoint.write_snapshot_us", "us", 1, func() error {
		iter++
		snap.Iter, snap.Step = iter, iter
		return store.WriteSnapshot(snap)
	})
	p.time("probe.checkpoint.recover_us", "us", 1, func() error {
		_, err := checkpoint.Recover(dir)
		return err
	})
	lease, err := ha.Acquire(tmp, "probe", "127.0.0.1:0", leaseTTL)
	if err != nil {
		p.err = err
		return
	}
	p.time("probe.ha.lease_renew_us", "us", 1, lease.Renew)
}
