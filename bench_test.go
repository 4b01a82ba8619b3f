package hetgc

import (
	"math"
	"testing"

	"github.com/hetgc/hetgc/internal/experiments"
	"github.com/hetgc/hetgc/internal/sim"
)

// Benchmarks regenerating the paper's tables and figures: each one is a
// `gcsim -exp` table (table2, fig2a, fig2b, fig3, fig4, fig5,
// ablation-misest, ablation-s) whose b.N loop runs the full experiment at a
// reduced iteration count; run `cmd/gcsim` for the full-size tables.

// BenchmarkTable2Clusters builds all four Table II clusters and their
// strategies.
func BenchmarkTable2Clusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cl := range []*Cluster{ClusterA(), ClusterB(), ClusterC(), ClusterD()} {
			rng := NewRand(int64(i))
			k := experiments.ChooseK(cl, 1)
			if _, err := BuildStrategy(HeterAware, cl.Throughputs(), k, 1, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchDelaySweep(b *testing.B, s int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := RunFig2Sweep(DelaySweepConfig{
			Cluster:        ClusterA(),
			S:              s,
			Delays:         []float64{0, 4, 8, math.Inf(1)},
			Iterations:     30,
			FluctuationStd: 0.05,
			Seed:           int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		sp, err := SpeedupVsCyclic(rows[len(rows)-1])
		if err != nil {
			b.Fatal(err)
		}
		if sp < 1.5 {
			b.Fatalf("fault speedup collapsed: %v", sp)
		}
	}
}

// BenchmarkFig2a regenerates Fig. 2a (Cluster-A, s=1 delay sweep).
func BenchmarkFig2a(b *testing.B) { benchDelaySweep(b, 1) }

// BenchmarkFig2b regenerates Fig. 2b (Cluster-A, s=2 delay sweep).
func BenchmarkFig2b(b *testing.B) { benchDelaySweep(b, 2) }

func benchCluster(b *testing.B, cl *Cluster) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := RunFig3Clusters(ClusterSweepConfig{
			Clusters:       []*Cluster{cl},
			S:              1,
			Iterations:     20,
			TransientProb:  0.02,
			TransientMean:  2,
			FluctuationStd: 0.05,
			Seed:           int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}

// BenchmarkFig3ClusterB regenerates the Cluster-B panel of Fig. 3.
func BenchmarkFig3ClusterB(b *testing.B) { benchCluster(b, ClusterB()) }

// BenchmarkFig3ClusterC regenerates the Cluster-C panel of Fig. 3.
func BenchmarkFig3ClusterC(b *testing.B) { benchCluster(b, ClusterC()) }

// BenchmarkFig3ClusterD regenerates the Cluster-D panel of Fig. 3.
func BenchmarkFig3ClusterD(b *testing.B) { benchCluster(b, ClusterD()) }

// BenchmarkFig4LossCurves regenerates Fig. 4 (loss vs time incl. SSP) on a
// reduced horizon.
func BenchmarkFig4LossCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lc, err := RunFig4LossCurves(LossCurveConfig{
			Cluster:             ClusterA(),
			S:                   1,
			Iterations:          25,
			SamplesPerPartition: 8,
			FeatureDim:          5,
			Classes:             3,
			TransientProb:       0.02,
			TransientMean:       2,
			Seed:                int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(lc.Curves) != 5 {
			b.Fatalf("curves = %d", len(lc.Curves))
		}
	}
}

// BenchmarkFig5Usage regenerates Fig. 5 (resource usage per scheme).
func BenchmarkFig5Usage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunFig3Clusters(ClusterSweepConfig{
			Clusters:       []*Cluster{ClusterA(), ClusterB()},
			S:              1,
			Iterations:     20,
			TransientProb:  0.02,
			TransientMean:  2,
			FluctuationStd: 0.05,
			CommOverhead:   0.3,
			Seed:           int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = UsageTable(rows)
	}
}

// BenchmarkMisestimation runs the group-based ablation (strategy built from
// noisy estimates, simulated against truth).
func BenchmarkMisestimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunMisestimation(MisestimationConfig{
			Cluster:    ClusterA(),
			S:          1,
			Epsilons:   []float64{0, 0.3},
			Iterations: 20,
			Trials:     2,
			Seed:       int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicationSweep runs the s ablation.
func BenchmarkReplicationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunReplicationSweep(ReplicationSweepConfig{
			Cluster:    ClusterA(),
			SValues:    []int{1, 2},
			Delay:      5,
			Iterations: 15,
			Seed:       int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstructHeterAware measures Alg. 1 code construction on the
// largest cluster (Table II Cluster-D).
func BenchmarkConstructHeterAware(b *testing.B) {
	cl := ClusterD()
	ths := cl.Throughputs()
	k := experiments.ChooseK(cl, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewHeterAware(ths, k, 1, NewRand(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstructGroupBased measures Alg. 2/3 construction (group search
// included) on Cluster-B.
func BenchmarkConstructGroupBased(b *testing.B) {
	cl := ClusterB()
	ths := cl.Throughputs()
	k := experiments.ChooseK(cl, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGroupBased(ths, k, 1, NewRand(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeFastPath measures the O(s³) null-space decoding path used
// by heter-aware codes.
func BenchmarkDecodeFastPath(b *testing.B) {
	cl := ClusterB()
	st, err := NewHeterAware(cl.Throughputs(), experiments.ChooseK(cl, 2), 2, NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	m := st.M()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the pattern so the memo cache doesn't absorb the work.
		stragglers := []int{i % m, (i + 7) % m}
		if stragglers[0] == stragglers[1] {
			stragglers = stragglers[:1]
		}
		if _, err := st.Decode(AliveFromStragglers(m, stragglers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeGroupBroken measures group-based decoding when every group
// is broken, forcing the Ē sub-code path (requires a configuration with
// P ≤ s groups; skips otherwise). The finer decode-path ablation lives in
// internal/core's benchmarks (BenchmarkDecodeNullSpacePath vs
// BenchmarkDecodeGenericPath).
func BenchmarkDecodeGroupBroken(b *testing.B) {
	var st *Strategy
search:
	for _, cl := range []*Cluster{ClusterA(), ClusterB(), ClusterC(), ClusterD()} {
		for _, s := range []int{1, 2, 3} {
			cand, err := BuildStrategy(GroupBased, cl.Throughputs(), experiments.ChooseK(cl, s), s, NewRand(1))
			if err != nil {
				continue
			}
			if p := len(cand.Groups()); p > 0 && p <= s {
				st = cand
				break search
			}
		}
	}
	if st == nil {
		b.Skip("no Table II configuration with P ≤ s groups")
	}
	m := st.M()
	groups := st.Groups()
	var stragglers []int
	for _, g := range groups {
		stragglers = append(stragglers, g[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Decode(AliveFromStragglers(m, stragglers)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPartials(dim, n int) []Gradient {
	partials := make([]Gradient, n)
	rng := NewRand(1)
	for i := range partials {
		partials[i] = make(Gradient, dim)
		for j := range partials[i] {
			partials[i][j] = rng.NormFloat64()
		}
	}
	return partials
}

// BenchmarkEncodeGradientAlloc measures the allocating Encode wrapper (one
// fresh gradient per call) for comparison with the pooled in-place kernel
// (grad.BenchmarkEncodeInto, the path the runtime worker takes).
func BenchmarkEncodeGradientAlloc(b *testing.B) {
	const dim = 100_000
	partials := benchPartials(dim, 4)
	coeffs := []float64{0.3, -1.2, 2.4, 0.9}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeGradient(coeffs, partials); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSP measures the SSP baseline simulation.
func BenchmarkSSP(b *testing.B) {
	data, err := GaussianMixture(200, 4, 3, 3, NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	ths := ClusterA().Throughputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSSP(sim.SSPConfig{
			Throughputs:         ths,
			Staleness:           3,
			Model:               &Softmax{InputDim: 4, NumClasses: 3},
			Data:                data,
			Optimizer:           &SGD{LR: 0.05},
			IterationsPerWorker: 20,
			Name:                "ssp",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardedSim runs the co-simulation in coding groups at a given scale;
// groupSize = m is one group, the flat single-master runtime, so the pair
// measures flat-vs-sharded per-iteration wall-clock on identical fleets
// (including real plan construction and decode work).
func benchShardedSim(b *testing.B, m, groupSize int) {
	b.Helper()
	rates := make([]float64, m)
	for i := range rates {
		rates[i] = 100
	}
	cfg := ElasticSimConfig{
		K: 2 * m, S: 1, GroupSize: groupSize, FanIn: 4,
		InitialRates:  rates,
		Estimates:     rates,
		Iterations:    10,
		IngestSeconds: 0.002,
		HopSeconds:    0.005,
		Seed:          7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SimulateElastic(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Summary.Mean
	}
}

// benchIterRate reports end-to-end training throughput of the sharded
// co-simulation at fleet scale as an explicit "iter/s" metric. The
// bench-regression gate (gcbench -compare, IterRate in the default filter)
// gates throughput-style units on a drop, so a collapse in iterations/sec
// fails CI even if per-op wall time shifts in a way ns/op tolerates.
func benchIterRate(b *testing.B, m int) {
	b.Helper()
	rates := make([]float64, m)
	for i := range rates {
		rates[i] = 100
	}
	const iters = 10
	cfg := ElasticSimConfig{
		K: 2 * m, S: 1, GroupSize: 10, FanIn: 4,
		InitialRates:  rates,
		Estimates:     rates,
		Iterations:    iters,
		IngestSeconds: 0.002,
		HopSeconds:    0.005,
		Seed:          7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateElastic(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(iters*b.N)/b.Elapsed().Seconds(), "iter/s")
}

// End-to-end iterations/sec at 200 and 500 simulated workers (gated).
func BenchmarkIterRate200Workers(b *testing.B) { benchIterRate(b, 200) }
func BenchmarkIterRate500Workers(b *testing.B) { benchIterRate(b, 500) }

// Flat vs sharded iteration latency at 50–500 simulated workers: the
// hierarchical runtime builds many small codes and decodes many small
// systems instead of one large one.
func BenchmarkSimFlat50(b *testing.B)     { benchShardedSim(b, 50, 50) }
func BenchmarkSimSharded50(b *testing.B)  { benchShardedSim(b, 50, 10) }
func BenchmarkSimFlat200(b *testing.B)    { benchShardedSim(b, 200, 200) }
func BenchmarkSimSharded200(b *testing.B) { benchShardedSim(b, 200, 10) }
func BenchmarkSimFlat500(b *testing.B)    { benchShardedSim(b, 500, 500) }
func BenchmarkSimSharded500(b *testing.B) { benchShardedSim(b, 500, 10) }
