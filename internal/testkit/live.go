package testkit

import (
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
)

// Addr is the address every live root under test listens on: loopback, a
// free port. Every live test brings its root up through Open, so this is the
// one place a test cluster's address is chosen.
const Addr = "127.0.0.1:0"

// Live is one root under test and the elastic workers dialled into it. A
// one-group root (no Throughputs) is the flat cluster; with Throughputs its
// worker slots are the planned workers of each group, in group order.
type Live struct {
	Root *shard.Root
	// Workers are the ElasticWorkers Dial started, by slot.
	Workers []*runtime.ElasticWorker

	fx   *Fixture
	wg   sync.WaitGroup
	errs []*error // each started worker's Run result, by slot
}

// Open brings a root up on Addr from cfg, with no workers yet. Workers the
// builder dials train fx's partitions with fx's model.
func Open(fx *Fixture, cfg shard.Config) (*Live, error) { return OpenOn(Addr, fx, cfg) }

// OpenOn is Open on another address, for a test of how a root binds.
func OpenOn(addr string, fx *Fixture, cfg shard.Config) (*Live, error) {
	r, err := shard.NewRoot(cfg, addr)
	if err != nil {
		return nil, err
	}
	return &Live{Root: r, fx: fx}, nil
}

// Start opens a root from cfg, failing t if it cannot and closing it when t
// ends, and dials n ElasticWorkers into it (see Dial).
func Start(t testing.TB, fx *Fixture, cfg shard.Config, n int, worker func(i int, wc *runtime.ElasticWorkerConfig)) *Live {
	t.Helper()
	l, err := Open(fx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	l.Dial(t, n, worker)
	return l
}

// PerPart is a worker hook that gives every worker the same per-partition
// delay d.
func PerPart(d time.Duration) func(int, *runtime.ElasticWorkerConfig) {
	return func(_ int, wc *runtime.ElasticWorkerConfig) {
		wc.DelayPerPartition = func(int) time.Duration { return d }
	}
}

// Addrs returns the dial address of each of the first n worker slots: every
// group's address once per planned worker, in group order, then the one
// group's address for slots a plan does not name.
func (l *Live) Addrs(n int) []string {
	groupAddrs := l.Root.GroupAddrs()
	var addrs []string
	for g, grp := range l.Root.Plan().Groups {
		for range grp.Workers {
			addrs = append(addrs, groupAddrs[g])
		}
	}
	for len(addrs) < n {
		addrs = append(addrs, groupAddrs[0])
	}
	return addrs[:n]
}

// Worker dials one ElasticWorker into slot i's address and returns it
// unstarted. It trains the fixture's partitions with the fixture's model,
// after worker (when non-nil) has adjusted its config — its delays, most
// often.
func (l *Live) Worker(i int, worker func(i int, wc *runtime.ElasticWorkerConfig)) (*runtime.ElasticWorker, error) {
	wc := l.fx.workerConfig()
	if worker != nil {
		worker(i, &wc)
	}
	return runtime.DialElasticWorker(l.Addrs(i + 1)[i], wc)
}

// workerConfig is an honest worker that trains fx's partitions with fx's
// model.
func (fx *Fixture) workerConfig() runtime.ElasticWorkerConfig {
	return runtime.ElasticWorkerConfig{
		Model:         fx.Model,
		PartitionData: func(p int) (*ml.Dataset, error) { return fx.Parts[p], nil },
	}
}

// Dial dials n more ElasticWorkers into the next free slots, one after
// another, so the i-th worker dialled is the i-th member to join its group,
// and runs each until its root lets it go. It fails t if a dial fails.
func (l *Live) Dial(t testing.TB, n int, worker func(i int, wc *runtime.ElasticWorkerConfig)) {
	t.Helper()
	for j := 0; j < n; j++ {
		i := len(l.Workers)
		w, err := l.Worker(i, worker)
		if err != nil {
			t.Fatal(err)
		}
		runErr := new(error)
		l.Workers, l.errs = append(l.Workers, w), append(l.errs, runErr)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			*runErr = w.Run()
		}()
	}
}

// Errs returns each started worker's Run result, by slot. Read it after Run
// or Close, once every worker has exited.
func (l *Live) Errs() []error {
	out := make([]error, len(l.errs))
	for i, err := range l.errs {
		out[i] = *err
	}
	return out
}

// Run trains to completion and digests the result. With wait > 0 it first
// waits up to wait for every group's workers, closing the root if they do
// not come. It returns once every worker Dial started has exited.
func (l *Live) Run(wait time.Duration) (*Outcome, error) {
	if wait > 0 {
		if err := l.Root.WaitForWorkers(wait); err != nil {
			l.Close()
			return nil, err
		}
	}
	res, err := l.Root.Run()
	l.wg.Wait()
	if err != nil {
		return nil, err
	}
	return digest(res), nil
}

// Close tears the root down cold and waits for the workers Dial started.
// Idempotent.
func (l *Live) Close() {
	l.Root.Close()
	l.wg.Wait()
}

// digest sums a run's groups into an Outcome: counters add up, the final
// epoch is the highest any group ended on.
func digest(res *shard.Result) *Outcome {
	out := &Outcome{Result: res, Iters: len(res.IterTimes)}
	for _, gs := range res.Groups {
		out.StaleEpochRejected += gs.StaleEpochRejected
		out.StaleConnRejected += gs.StaleConnRejected
		out.StragglersSkipped += gs.StragglersSkipped
		out.MalformedSkipped += gs.MalformedSkipped
		out.TelemetrySamples += gs.TelemetrySamples
		out.FencedUploads += gs.FencedRejected
		out.Joins += gs.Joins
		out.Deaths += gs.Deaths
		if n := len(gs.Epochs); n > 0 && gs.Epochs[n-1] > out.FinalEpoch {
			out.FinalEpoch = gs.Epochs[n-1]
		}
	}
	return out
}

// Layout is a root shape the conformance, recovery and HA tables run at. The
// tables are the same for both; the layout only shapes the config.
type Layout int

const (
	// OneGroup is the flat cluster: one group over every partition, which
	// waits for the scenario's workers before it trains.
	OneGroup Layout = iota
	// Grouped plans the scenario's workers at their initial rate in groups
	// of the scenario's GroupSize, reduced along a fan-in-2 tree.
	Grouped
)

// shape lays cfg out for workers planned at rate in groups of groupSize.
func (lay Layout) shape(cfg *shard.Config, workers, groupSize int, rate float64) {
	if lay == OneGroup {
		cfg.MinWorkers = workers
		return
	}
	cfg.Throughputs = make([]float64, workers)
	for i := range cfg.Throughputs {
		cfg.Throughputs[i] = rate
	}
	cfg.GroupSize, cfg.FanIn = groupSize, 2
}

// WaitUntil polls cond every 5ms until it holds or the timeout expires and
// reports whether it held, so a scripting goroutine does not spin forever
// when its root exits early.
func WaitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}
