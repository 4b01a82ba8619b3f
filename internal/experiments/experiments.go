// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): Table II cluster configurations, Fig. 2 delay sweeps on
// Cluster-A, Fig. 3 per-cluster iteration times, Fig. 4 loss-versus-time
// curves including the SSP baseline, Fig. 5 computing-resource usage, plus
// the two ablations, throughput mis-estimation (`gcsim -exp ablation-misest`)
// and the replication-factor sweep (`gcsim -exp ablation-s`).
//
// Each runner returns structured rows and can render the same table the
// paper reports. Everything is deterministic given the config seed.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/hetgc/hetgc/internal/cluster"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/sim"
	"github.com/hetgc/hetgc/internal/straggler"
)

// ErrBadConfig marks invalid experiment configurations.
var ErrBadConfig = errors.New("experiments: invalid config")

// DefaultSchemes is the scheme lineup of Figs. 2, 3 and 5.
func DefaultSchemes() []core.Kind {
	return []core.Kind{core.Naive, core.Cyclic, core.HeterAware, core.GroupBased}
}

// ChooseK picks the partition count for proportional schemes: the smallest
// multiple of Σc_i/(s+1) that is at least m keeps the ideal loads integral
// (n_i = c_i exactly, in vCPU units), mirroring the paper's assumption that
// k(s+1)·c_i/Σc_j is an integer.
func ChooseK(cl *cluster.Cluster, s int) int {
	total := 0
	for _, w := range cl.Workers {
		total += w.VCPUs
	}
	m := cl.M()
	if total%(s+1) == 0 {
		base := total / (s + 1)
		k := base
		for k < m {
			k += base
		}
		return k
	}
	// Fall back to a k that at least dominates the worker count; the
	// largest-remainder rounding in the allocator absorbs the slack.
	k := total
	for k < m {
		k += total
	}
	return k
}

// SchemeOutcome is one scheme's aggregate in a sweep cell.
type SchemeOutcome struct {
	Kind core.Kind
	// AvgIterTime is the mean iteration time in seconds (+Inf when every
	// iteration failed, e.g. naive under faults).
	AvgIterTime float64
	// P95IterTime is the 95th percentile iteration time.
	P95IterTime float64
	// Usage is the Fig. 5 computing-resource usage.
	Usage float64
	// Failed counts undecodable iterations.
	Failed int
}

// outcome is one scheme's sweep cell from its simulation.
func outcome(kind core.Kind, res *sim.ElasticSimResult) SchemeOutcome {
	return SchemeOutcome{
		Kind:        kind,
		AvgIterTime: res.AvgIterTime(),
		P95IterTime: res.Summary.P95,
		Usage:       res.Usage,
		Failed:      res.Failed,
	}
}

// runScheme runs one scheme on a cluster's true speeds through the
// simulator, with no churn and the plan frozen at its initial build. The
// members' priors are est (the truth when nil), so that plan is the one
// planner.BuildStrategy builds from them on the run's stream. The clusters
// give speeds in datasets/second and the simulator takes partitions/second,
// so both scale by the scheme's partition count: m for a fixed-shape scheme,
// k for a proportional one.
func runScheme(kind core.Kind, truth, est []float64, k int, cfg sim.ElasticSimConfig) (*sim.ElasticSimResult, error) {
	if kind.FixedShape() {
		k = len(truth)
	}
	if est == nil {
		est = truth
	}
	perPartition := func(rates []float64) []float64 {
		out := make([]float64, len(rates))
		for i, r := range rates {
			out[i] = r * float64(k)
		}
		return out
	}
	cfg.K, cfg.Scheme, cfg.DriftThreshold = k, kind, math.Inf(1)
	cfg.InitialRates, cfg.Estimates = perPartition(truth), perPartition(est)
	return sim.RunElastic(cfg)
}

// DelaySweepConfig parameterises Fig. 2 (and the per-cluster runs of Fig. 3,
// which are delay sweeps with a single point).
type DelaySweepConfig struct {
	// Cluster under test (Fig. 2 uses Cluster-A).
	Cluster *cluster.Cluster
	// S is the straggler budget (Fig. 2a: 1, Fig. 2b: 2).
	S int
	// Delays is the injected extra delay sweep; math.Inf(1) = fault.
	Delays []float64
	// Iterations per cell.
	Iterations int
	// Schemes to compare (DefaultSchemes when nil).
	Schemes []core.Kind
	// FluctuationStd is runtime jitter (mean-one lognormal sigma).
	FluctuationStd float64
	// CommOverhead is fixed per-iteration communication seconds.
	CommOverhead float64
	// Seed drives all randomness.
	Seed int64
}

// DelayRow is one sweep row: outcomes per scheme at one injected delay.
type DelayRow struct {
	Delay    float64
	Outcomes []SchemeOutcome
}

// RunDelaySweep regenerates Fig. 2: for each injected delay, each scheme's
// average iteration time on the cluster with S artificial stragglers.
func RunDelaySweep(cfg DelaySweepConfig) ([]DelayRow, error) {
	if cfg.Cluster == nil || cfg.Iterations <= 0 || cfg.S < 0 || len(cfg.Delays) == 0 {
		return nil, fmt.Errorf("%w: cluster/iterations/delays required", ErrBadConfig)
	}
	schemes := cfg.Schemes
	if schemes == nil {
		schemes = DefaultSchemes()
	}
	truth := cfg.Cluster.Throughputs()
	k := ChooseK(cfg.Cluster, cfg.S)
	rows := make([]DelayRow, len(cfg.Delays))
	for di, delay := range cfg.Delays {
		rows[di] = DelayRow{Delay: delay, Outcomes: make([]SchemeOutcome, len(schemes))}
	}
	// Every (delay, scheme) cell is independent and carries its own seeded
	// rng, so the sweep fans out across cores with deterministic results.
	err := forEachCell(len(cfg.Delays)*len(schemes), func(cell int) error {
		di, si := cell/len(schemes), cell%len(schemes)
		kind := schemes[si]
		res, err := runScheme(kind, truth, nil, k, sim.ElasticSimConfig{
			S:              cfg.S,
			Injector:       straggler.Fixed{Count: cfg.S, Delay: rows[di].Delay},
			Iterations:     cfg.Iterations,
			FluctuationStd: cfg.FluctuationStd,
			CommOverhead:   cfg.CommOverhead,
			Seed:           cfg.Seed + int64(1000*di+si),
		})
		if err != nil {
			return fmt.Errorf("%v: %w", kind, err)
		}
		rows[di].Outcomes[si] = outcome(kind, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// DelayTable renders a Fig. 2-style table: one row per delay, one column per
// scheme's average iteration time.
func DelayTable(rows []DelayRow) *metrics.Table {
	if len(rows) == 0 {
		return &metrics.Table{}
	}
	header := []string{"delay(s)"}
	for _, o := range rows[0].Outcomes {
		header = append(header, o.Kind.String())
	}
	t := &metrics.Table{Header: header}
	for _, r := range rows {
		cells := []string{metrics.F(r.Delay)}
		for _, o := range r.Outcomes {
			cells = append(cells, metrics.F(o.AvgIterTime))
		}
		t.AddRow(cells...)
	}
	return t
}

// ClusterSweepConfig parameterises Fig. 3: per-cluster iteration times under
// the cluster's natural heterogeneity plus transient interference.
type ClusterSweepConfig struct {
	// Clusters under test (Fig. 3: B, C, D).
	Clusters []*cluster.Cluster
	// S is the straggler budget.
	S int
	// Iterations per cell.
	Iterations int
	// Schemes to compare (DefaultSchemes when nil).
	Schemes []core.Kind
	// TransientProb/TransientMean model background interference.
	TransientProb, TransientMean float64
	// FluctuationStd is runtime jitter.
	FluctuationStd float64
	// CommOverhead is per-iteration communication seconds.
	CommOverhead float64
	// Seed drives all randomness.
	Seed int64
}

// ClusterRow is one cluster's outcomes per scheme.
type ClusterRow struct {
	Cluster  string
	M        int
	Outcomes []SchemeOutcome
}

// RunClusterSweep regenerates Fig. 3 (and, via the Usage field, Fig. 5).
func RunClusterSweep(cfg ClusterSweepConfig) ([]ClusterRow, error) {
	if len(cfg.Clusters) == 0 || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("%w: clusters/iterations required", ErrBadConfig)
	}
	schemes := cfg.Schemes
	if schemes == nil {
		schemes = DefaultSchemes()
	}
	rows := make([]ClusterRow, len(cfg.Clusters))
	for ci, cl := range cfg.Clusters {
		rows[ci] = ClusterRow{Cluster: cl.Name, M: cl.M(), Outcomes: make([]SchemeOutcome, len(schemes))}
	}
	// Fan the (cluster, scheme) cells across cores; per-cell seeded rngs keep
	// the tables deterministic.
	err := forEachCell(len(cfg.Clusters)*len(schemes), func(cell int) error {
		ci, si := cell/len(schemes), cell%len(schemes)
		cl := cfg.Clusters[ci]
		kind := schemes[si]
		res, err := runScheme(kind, cl.Throughputs(), nil, ChooseK(cl, cfg.S), sim.ElasticSimConfig{
			S:              cfg.S,
			Injector:       straggler.Transient{Prob: cfg.TransientProb, Mean: cfg.TransientMean},
			Iterations:     cfg.Iterations,
			FluctuationStd: cfg.FluctuationStd,
			CommOverhead:   cfg.CommOverhead,
			Seed:           cfg.Seed + int64(1000*ci+si),
		})
		if err != nil {
			return fmt.Errorf("%s/%v: %w", cl.Name, kind, err)
		}
		rows[ci].Outcomes[si] = outcome(kind, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ClusterTable renders Fig. 3 as average iteration time per cluster/scheme.
func ClusterTable(rows []ClusterRow) *metrics.Table {
	if len(rows) == 0 {
		return &metrics.Table{}
	}
	header := []string{"cluster", "m"}
	for _, o := range rows[0].Outcomes {
		header = append(header, o.Kind.String())
	}
	t := &metrics.Table{Header: header}
	for _, r := range rows {
		cells := []string{r.Cluster, fmt.Sprintf("%d", r.M)}
		for _, o := range r.Outcomes {
			cells = append(cells, metrics.F(o.AvgIterTime))
		}
		t.AddRow(cells...)
	}
	return t
}

// UsageTable renders Fig. 5 from cluster-sweep rows: resource usage per
// cluster/scheme.
func UsageTable(rows []ClusterRow) *metrics.Table {
	if len(rows) == 0 {
		return &metrics.Table{}
	}
	header := []string{"cluster"}
	for _, o := range rows[0].Outcomes {
		header = append(header, o.Kind.String())
	}
	t := &metrics.Table{Header: header}
	for _, r := range rows {
		cells := []string{r.Cluster}
		for _, o := range r.Outcomes {
			cells = append(cells, metrics.F(o.Usage))
		}
		t.AddRow(cells...)
	}
	return t
}

// Table2 renders the paper's Table II cluster configurations.
func Table2() *metrics.Table {
	clusters := []*cluster.Cluster{
		cluster.ClusterA(), cluster.ClusterB(), cluster.ClusterC(), cluster.ClusterD(),
	}
	t := &metrics.Table{Header: []string{"vCPUs", "Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D"}}
	sizes := []int{2, 4, 8, 12, 16}
	for _, size := range sizes {
		cells := []string{fmt.Sprintf("%d-vCPUs", size)}
		for _, cl := range clusters {
			n := 0
			for _, w := range cl.Workers {
				if w.VCPUs == size {
					n++
				}
			}
			cells = append(cells, fmt.Sprintf("%d", n))
		}
		t.AddRow(cells...)
	}
	total := []string{"total"}
	for _, cl := range clusters {
		total = append(total, fmt.Sprintf("%d", cl.M()))
	}
	t.AddRow(total...)
	return t
}

// SpeedupVsCyclic returns heter-aware's speedup over cyclic at the given
// sweep row — the paper's headline "up to 3×" metric at the fault point.
func SpeedupVsCyclic(row DelayRow) (float64, error) {
	var cyclic, heter float64
	var haveC, haveH bool
	for _, o := range row.Outcomes {
		switch o.Kind {
		case core.Cyclic:
			cyclic, haveC = o.AvgIterTime, true
		case core.HeterAware:
			heter, haveH = o.AvgIterTime, true
		}
	}
	if !haveC || !haveH {
		return 0, fmt.Errorf("%w: row lacks cyclic/heter outcomes", ErrBadConfig)
	}
	if heter <= 0 || math.IsInf(cyclic, 1) {
		return math.Inf(1), nil
	}
	return cyclic / heter, nil
}

// MisestimationConfig parameterises the group-based ablation: strategies are
// built from noisy throughput estimates but simulated against the truth.
type MisestimationConfig struct {
	Cluster    *cluster.Cluster
	S          int
	Epsilons   []float64 // relative estimation error sweep
	Iterations int
	Trials     int // independent noisy estimates per epsilon
	Seed       int64
}

// MisestimationRow compares heter-aware and group-based at one error level.
type MisestimationRow struct {
	Epsilon   float64
	HeterAvg  float64
	GroupAvg  float64
	GroupGain float64 // HeterAvg / GroupAvg
}

// RunMisestimation regenerates the §V motivation: as estimates degrade, the
// group fast path (which only needs *some* group to finish) loses less than
// pure heter-aware decoding.
func RunMisestimation(cfg MisestimationConfig) ([]MisestimationRow, error) {
	if cfg.Cluster == nil || cfg.Iterations <= 0 || len(cfg.Epsilons) == 0 {
		return nil, fmt.Errorf("%w: cluster/iterations/epsilons required", ErrBadConfig)
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 3
	}
	truth := cfg.Cluster.Throughputs()
	k := ChooseK(cfg.Cluster, cfg.S)
	// Each (epsilon, trial) cell draws its estimates and runs both schemes on
	// one shared rng stream (order matters within the cell); cells fan out
	// across cores and reduce deterministically afterwards.
	type trialOutcome struct{ heter, group float64 }
	outcomes := make([]trialOutcome, len(cfg.Epsilons)*trials)
	err := forEachCell(len(outcomes), func(cell int) error {
		ei, trial := cell/trials, cell%trials
		eps := cfg.Epsilons[ei]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(100*ei+trial)))
		est := estimate.Misestimate(truth, eps, rng)
		for _, kind := range []core.Kind{core.HeterAware, core.GroupBased} {
			res, err := runScheme(kind, truth, est, k, sim.ElasticSimConfig{
				S:              cfg.S,
				Injector:       straggler.Fixed{Count: cfg.S, Delay: 5},
				Iterations:     cfg.Iterations,
				FluctuationStd: 0.05,
				Rng:            rng,
			})
			if err != nil {
				return fmt.Errorf("eps=%v %v: %w", eps, kind, err)
			}
			if kind == core.HeterAware {
				outcomes[cell].heter = res.AvgIterTime()
			} else {
				outcomes[cell].group = res.AvgIterTime()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]MisestimationRow, 0, len(cfg.Epsilons))
	for ei, eps := range cfg.Epsilons {
		var heterSum, groupSum float64
		for trial := 0; trial < trials; trial++ {
			heterSum += outcomes[ei*trials+trial].heter
			groupSum += outcomes[ei*trials+trial].group
		}
		row := MisestimationRow{
			Epsilon:  eps,
			HeterAvg: heterSum / float64(trials),
			GroupAvg: groupSum / float64(trials),
		}
		if row.GroupAvg > 0 {
			row.GroupGain = row.HeterAvg / row.GroupAvg
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MisestimationTable renders the ablation rows.
func MisestimationTable(rows []MisestimationRow) *metrics.Table {
	t := &metrics.Table{Header: []string{"eps", "heter-aware", "group-based", "heter/group"}}
	for _, r := range rows {
		t.AddRow(metrics.F(r.Epsilon), metrics.F(r.HeterAvg), metrics.F(r.GroupAvg), metrics.F(r.GroupGain))
	}
	return t
}

// ReplicationSweepConfig sweeps the straggler budget s (ablation).
type ReplicationSweepConfig struct {
	Cluster    *cluster.Cluster
	SValues    []int
	Delay      float64
	Iterations int
	Seed       int64
}

// ReplicationRow is one s value's outcomes.
type ReplicationRow struct {
	S        int
	Outcomes []SchemeOutcome
}

// RunReplicationSweep measures the cost of extra replication: higher s
// tolerates more stragglers but multiplies every worker's load by (s+1).
func RunReplicationSweep(cfg ReplicationSweepConfig) ([]ReplicationRow, error) {
	if cfg.Cluster == nil || cfg.Iterations <= 0 || len(cfg.SValues) == 0 {
		return nil, fmt.Errorf("%w: cluster/iterations/svalues required", ErrBadConfig)
	}
	truth := cfg.Cluster.Throughputs()
	schemes := []core.Kind{core.Cyclic, core.HeterAware, core.GroupBased}
	rows := make([]ReplicationRow, len(cfg.SValues))
	for si, s := range cfg.SValues {
		rows[si] = ReplicationRow{S: s, Outcomes: make([]SchemeOutcome, len(schemes))}
	}
	err := forEachCell(len(cfg.SValues)*len(schemes), func(cell int) error {
		si, scIdx := cell/len(schemes), cell%len(schemes)
		s := cfg.SValues[si]
		kind := schemes[scIdx]
		res, err := runScheme(kind, truth, nil, ChooseK(cfg.Cluster, s), sim.ElasticSimConfig{
			S:              s,
			Injector:       straggler.Fixed{Count: s, Delay: cfg.Delay},
			Iterations:     cfg.Iterations,
			FluctuationStd: 0.05,
			Seed:           cfg.Seed + int64(100*si+scIdx),
		})
		if err != nil {
			return fmt.Errorf("s=%d %v: %w", s, kind, err)
		}
		rows[si].Outcomes[scIdx] = outcome(kind, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ReplicationTable renders the replication ablation.
func ReplicationTable(rows []ReplicationRow) *metrics.Table {
	if len(rows) == 0 {
		return &metrics.Table{}
	}
	header := []string{"s"}
	for _, o := range rows[0].Outcomes {
		header = append(header, o.Kind.String())
	}
	t := &metrics.Table{Header: header}
	for _, r := range rows {
		cells := []string{fmt.Sprintf("%d", r.S)}
		for _, o := range r.Outcomes {
			cells = append(cells, metrics.F(o.AvgIterTime))
		}
		t.AddRow(cells...)
	}
	return t
}
