package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/hetgc/hetgc/internal/cluster"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/planner"
)

func TestChooseKIntegralLoads(t *testing.T) {
	// Cluster-A: Σ vCPUs = 48; s=1 → k=24, so k(s+1)=48 and n_i = vCPUs_i.
	a := cluster.ClusterA()
	if k := ChooseK(a, 1); k != 24 {
		t.Fatalf("ChooseK(A,1) = %d, want 24", k)
	}
	if k := ChooseK(a, 2); k != 16 {
		t.Fatalf("ChooseK(A,2) = %d, want 16", k)
	}
	// k must always cover the worker count.
	d := cluster.ClusterD()
	if k := ChooseK(d, 1); k < d.M() {
		t.Fatalf("ChooseK(D,1) = %d < m=%d", k, d.M())
	}
}

// TestBuildStrategyAllKinds runs a sweep over every scheme on Cluster-A, so
// each kind is built from the cluster's truth and ChooseK's k, and an unknown
// kind surfaces the builder's error.
func TestBuildStrategyAllKinds(t *testing.T) {
	kinds := []core.Kind{core.Naive, core.Cyclic, core.FractionalRepetition, core.HeterAware, core.GroupBased}
	rows, err := RunDelaySweep(DelaySweepConfig{
		Cluster:    cluster.ClusterA(),
		S:          1,
		Delays:     []float64{0},
		Iterations: 2,
		Schemes:    kinds,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rows[0].Outcomes {
		if o.Kind != kinds[i] {
			t.Fatalf("outcome %d kind = %v, want %v", i, o.Kind, kinds[i])
		}
		if math.IsNaN(o.AvgIterTime) || o.AvgIterTime <= 0 || math.IsInf(o.AvgIterTime, 0) {
			t.Fatalf("%v: avg iteration time %v", o.Kind, o.AvgIterTime)
		}
	}
	_, err = RunDelaySweep(DelaySweepConfig{
		Cluster:    cluster.ClusterA(),
		S:          1,
		Delays:     []float64{0},
		Iterations: 2,
		Schemes:    []core.Kind{core.Kind(99)},
		Seed:       1,
	})
	if !errors.Is(err, planner.ErrBadConfig) {
		t.Fatalf("unknown kind err = %v", err)
	}
}

func TestRunDelaySweepFig2Shapes(t *testing.T) {
	rows, err := RunDelaySweep(DelaySweepConfig{
		Cluster:    cluster.ClusterA(),
		S:          1,
		Delays:     []float64{0, 2, 6, math.Inf(1)},
		Iterations: 30,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(r DelayRow, kind core.Kind) SchemeOutcome {
		for _, o := range r.Outcomes {
			if o.Kind == kind {
				return o
			}
		}
		t.Fatalf("missing %v", kind)
		return SchemeOutcome{}
	}
	// Shape 1: naive grows with delay and fails at fault.
	naive0 := get(rows[0], core.Naive).AvgIterTime
	naive6 := get(rows[2], core.Naive).AvgIterTime
	if naive6 < naive0+1.5 {
		t.Fatalf("naive must absorb delay: %v vs %v", naive0, naive6)
	}
	if !math.IsInf(get(rows[3], core.Naive).AvgIterTime, 1) {
		t.Fatal("naive must fail at fault")
	}
	// Shape 2: coded schemes are flat across delays (robust).
	for _, kind := range []core.Kind{core.Cyclic, core.HeterAware, core.GroupBased} {
		t0 := get(rows[0], kind).AvgIterTime
		tf := get(rows[3], kind).AvgIterTime
		if math.IsInf(tf, 1) {
			t.Fatalf("%v failed at fault", kind)
		}
		if tf > 2.5*t0 {
			t.Fatalf("%v not robust: %v -> %v", kind, t0, tf)
		}
	}
	// Shape 3: heter-aware and group-based beat cyclic at every delay.
	for _, r := range rows {
		cy := get(r, core.Cyclic).AvgIterTime
		he := get(r, core.HeterAware).AvgIterTime
		gr := get(r, core.GroupBased).AvgIterTime
		if he >= cy || gr >= cy {
			t.Fatalf("delay %v: heter %v / group %v should beat cyclic %v", r.Delay, he, gr, cy)
		}
	}
	// Shape 4: the headline speedup at the fault point is large (paper: 3×).
	sp, err := SpeedupVsCyclic(rows[3])
	if err != nil {
		t.Fatal(err)
	}
	if sp < 2 {
		t.Fatalf("fault speedup vs cyclic = %v, want ≥ 2 (paper reports up to 3x)", sp)
	}
}

func TestRunDelaySweepS2(t *testing.T) {
	rows, err := RunDelaySweep(DelaySweepConfig{
		Cluster:    cluster.ClusterA(),
		S:          2,
		Delays:     []float64{0, math.Inf(1)},
		Iterations: 15,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, o := range r.Outcomes {
			if o.Kind == core.Naive {
				continue
			}
			if o.Failed > 0 {
				t.Fatalf("%v failed %d iterations at delay %v with s=2", o.Kind, o.Failed, r.Delay)
			}
		}
	}
}

func TestDelayTableRendering(t *testing.T) {
	rows, err := RunDelaySweep(DelaySweepConfig{
		Cluster:    cluster.ClusterA(),
		S:          1,
		Delays:     []float64{0},
		Iterations: 3,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := DelayTable(rows).String()
	for _, want := range []string{"delay(s)", "naive", "cyclic", "heter-aware", "group-based"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunClusterSweepFig3Shapes(t *testing.T) {
	rows, err := RunClusterSweep(ClusterSweepConfig{
		Clusters:       []*cluster.Cluster{cluster.ClusterB(), cluster.ClusterC()},
		S:              1,
		Iterations:     15,
		TransientProb:  0.02,
		TransientMean:  2,
		FluctuationStd: 0.05,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var naive, cyclic, heter, group float64
		for _, o := range r.Outcomes {
			switch o.Kind {
			case core.Naive:
				naive = o.AvgIterTime
			case core.Cyclic:
				cyclic = o.AvgIterTime
			case core.HeterAware:
				heter = o.AvgIterTime
			case core.GroupBased:
				group = o.AvgIterTime
			}
		}
		if heter >= cyclic || group >= cyclic {
			t.Fatalf("%s: heter %v / group %v should beat cyclic %v", r.Cluster, heter, group, cyclic)
		}
		if heter >= naive {
			t.Fatalf("%s: heter %v should beat naive %v under interference", r.Cluster, heter, naive)
		}
	}
	// Fig. 5 usage ordering on each cluster.
	for _, r := range rows {
		var usage = map[core.Kind]float64{}
		for _, o := range r.Outcomes {
			usage[o.Kind] = o.Usage
		}
		if usage[core.HeterAware] <= usage[core.Naive] {
			t.Fatalf("%s: heter usage %v should exceed naive %v", r.Cluster, usage[core.HeterAware], usage[core.Naive])
		}
		if usage[core.GroupBased] <= usage[core.Naive] {
			t.Fatalf("%s: group usage %v should exceed naive %v", r.Cluster, usage[core.GroupBased], usage[core.Naive])
		}
	}
	if out := ClusterTable(rows).String(); !strings.Contains(out, "Cluster-B") {
		t.Fatalf("cluster table:\n%s", out)
	}
	if out := UsageTable(rows).String(); !strings.Contains(out, "Cluster-C") {
		t.Fatalf("usage table:\n%s", out)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"Cluster-A", "Cluster-D", "2-vCPUs", "16-vCPUs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestRunLossCurvesFig4Shapes(t *testing.T) {
	lc, err := RunLossCurves(LossCurveConfig{
		Cluster:             cluster.ClusterA(),
		S:                   1,
		Iterations:          40,
		SamplesPerPartition: 10,
		FeatureDim:          5,
		Classes:             3,
		TransientProb:       0.1,
		TransientMean:       3,
		Seed:                21,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 coded schemes + ssp.
	if len(lc.Curves) != 5 {
		t.Fatalf("curves = %d", len(lc.Curves))
	}
	// Every scheme's loss must drop.
	for i := range lc.Curves {
		pts := lc.Curves[i].Points
		if len(pts) < 2 {
			t.Fatalf("%s: too few points", lc.Curves[i].Name)
		}
		if pts[len(pts)-1].Y >= pts[0].Y {
			t.Fatalf("%s: loss did not drop (%v -> %v)", lc.Curves[i].Name, pts[0].Y, pts[len(pts)-1].Y)
		}
	}
	// At a shared mid-horizon time, heter-aware must be at or below naive's
	// loss (it performs strictly more useful iterations per second).
	horizon := lc.Curves[0].Points[len(lc.Curves[0].Points)-1].X
	at := lc.LossAt(horizon / 2)
	if at["heter-aware"] > at["naive"]+0.05 {
		t.Fatalf("heter-aware %v should converge at least as fast as naive %v", at["heter-aware"], at["naive"])
	}
	if !strings.Contains(lc.LossTable(4).String(), "ssp") {
		t.Fatal("loss table missing ssp column")
	}
}

func TestRunMisestimationShapes(t *testing.T) {
	rows, err := RunMisestimation(MisestimationConfig{
		Cluster:    cluster.ClusterA(),
		S:          1,
		Epsilons:   []float64{0, 0.4},
		Iterations: 20,
		Trials:     3,
		Seed:       33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With exact estimates both schemes are near-optimal; with bad estimates
	// both degrade but group-based should not be (much) worse than heter.
	if rows[1].HeterAvg <= rows[0].HeterAvg {
		t.Fatalf("mis-estimation should slow heter-aware: %v vs %v", rows[0].HeterAvg, rows[1].HeterAvg)
	}
	if rows[1].GroupAvg > rows[1].HeterAvg*1.15 {
		t.Fatalf("group-based (%v) should hold up vs heter (%v) under mis-estimation",
			rows[1].GroupAvg, rows[1].HeterAvg)
	}
	if !strings.Contains(MisestimationTable(rows).String(), "heter/group") {
		t.Fatal("misestimation table header wrong")
	}
}

func TestRunReplicationSweep(t *testing.T) {
	rows, err := RunReplicationSweep(ReplicationSweepConfig{
		Cluster:    cluster.ClusterA(),
		SValues:    []int{1, 2, 3},
		Delay:      5,
		Iterations: 15,
		Seed:       55,
	})
	if err != nil {
		t.Fatal(err)
	}
	// More replication = more load per worker = longer iterations for
	// heter-aware (the (s+1)k/Σc optimum grows linearly in s+1).
	var heter []float64
	for _, r := range rows {
		for _, o := range r.Outcomes {
			if o.Kind == core.HeterAware {
				heter = append(heter, o.AvgIterTime)
			}
			if o.Failed > 0 {
				t.Fatalf("s=%d %v: %d failures", r.S, o.Kind, o.Failed)
			}
		}
	}
	if !(heter[0] < heter[1] && heter[1] < heter[2]) {
		t.Fatalf("heter times should grow with s: %v", heter)
	}
	if !strings.Contains(ReplicationTable(rows).String(), "heter-aware") {
		t.Fatal("replication table header wrong")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	if _, err := RunDelaySweep(DelaySweepConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := RunClusterSweep(ClusterSweepConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := RunLossCurves(LossCurveConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := RunMisestimation(MisestimationConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := RunReplicationSweep(ReplicationSweepConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestSpeedupVsCyclicErrors(t *testing.T) {
	if _, err := SpeedupVsCyclic(DelayRow{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}
