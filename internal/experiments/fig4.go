package experiments

import (
	"fmt"
	"math/rand"

	"github.com/hetgc/hetgc/internal/cluster"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/sim"
	"github.com/hetgc/hetgc/internal/straggler"
)

// LossCurveConfig parameterises Fig. 4: training-loss versus simulated
// wall-clock on a heterogeneous cluster for the coded schemes plus SSP.
type LossCurveConfig struct {
	// Cluster under test (the paper uses Cluster-C).
	Cluster *cluster.Cluster
	// S is the straggler budget of the coded schemes.
	S int
	// Iterations is the BSP iteration budget; SSP workers get the same
	// per-worker budget.
	Iterations int
	// SamplesPerPartition scales the synthetic dataset (n = k·that).
	SamplesPerPartition int
	// FeatureDim and Classes shape the classification task.
	FeatureDim, Classes int
	// LearningRate for all schemes.
	LearningRate float64
	// Staleness bound of the SSP baseline.
	Staleness int
	// TransientProb/TransientMean model background interference.
	TransientProb, TransientMean float64
	// Schemes to include (DefaultSchemes when nil); SSP is always added.
	Schemes []core.Kind
	// Seed drives everything.
	Seed int64
}

func (c *LossCurveConfig) applyDefaults() {
	if c.SamplesPerPartition <= 0 {
		c.SamplesPerPartition = 20
	}
	if c.FeatureDim <= 0 {
		c.FeatureDim = 8
	}
	if c.Classes <= 0 {
		c.Classes = 3
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.Staleness <= 0 {
		c.Staleness = 3
	}
}

// LossCurves is the Fig. 4 result: one loss series per scheme.
type LossCurves struct {
	// Curves holds (simulated seconds, mean loss) series named by scheme.
	Curves []metrics.Series
	// FinalLoss maps scheme name to final loss.
	FinalLoss map[string]float64
}

// RunLossCurves regenerates Fig. 4. The same dataset, model and learning
// rate are used across schemes; only the distribution/timing layer differs.
func RunLossCurves(cfg LossCurveConfig) (*LossCurves, error) {
	if cfg.Cluster == nil || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("%w: cluster/iterations required", ErrBadConfig)
	}
	cfg.applyDefaults()
	schemes := cfg.Schemes
	if schemes == nil {
		schemes = DefaultSchemes()
	}
	truth := cfg.Cluster.Throughputs()
	k := ChooseK(cfg.Cluster, cfg.S)
	dataRng := rand.New(rand.NewSource(cfg.Seed))
	data, err := ml.GaussianMixture(k*cfg.SamplesPerPartition, cfg.FeatureDim, cfg.Classes, 3, dataRng)
	if err != nil {
		return nil, err
	}
	model := &ml.Softmax{InputDim: cfg.FeatureDim, NumClasses: cfg.Classes}

	out := &LossCurves{Curves: make([]metrics.Series, len(schemes)), FinalLoss: make(map[string]float64)}
	recordEvery := cfg.Iterations / 50
	if recordEvery <= 0 {
		recordEvery = 1
	}
	// Each scheme trains independently on the shared (read-only) dataset and
	// stateless model, with its own seeded stream: fan the schemes across
	// cores.
	finals := make([]float64, len(schemes))
	err = forEachCell(len(schemes), func(si int) error {
		kind := schemes[si]
		res, err := runScheme(kind, truth, nil, k, sim.ElasticSimConfig{
			S:              cfg.S,
			Injector:       straggler.Transient{Prob: cfg.TransientProb, Mean: cfg.TransientMean},
			Iterations:     cfg.Iterations,
			FluctuationStd: 0.05,
			Seed:           cfg.Seed + int64(si+1),
			Model:          model,
			Data:           data,
			Optimizer:      &ml.SGD{LR: cfg.LearningRate},
			RecordEvery:    recordEvery,
		})
		if err != nil {
			return fmt.Errorf("%v: %w", kind, err)
		}
		res.Loss.Name = kind.String()
		out.Curves[si] = res.Loss
		finals[si], err = ml.MeanLoss(model, res.Params, data)
		return err
	})
	if err != nil {
		return nil, err
	}
	for si, kind := range schemes {
		out.FinalLoss[kind.String()] = finals[si]
	}

	// SSP baseline.
	sspRng := rand.New(rand.NewSource(cfg.Seed + 999))
	sspRes, err := sim.RunSSP(sim.SSPConfig{
		Throughputs:         truth,
		Staleness:           cfg.Staleness,
		Model:               model,
		Data:                data,
		Optimizer:           &ml.SGD{LR: cfg.LearningRate / float64(cfg.Cluster.M())},
		IterationsPerWorker: cfg.Iterations,
		FluctuationStd:      0.05,
		Rng:                 sspRng,
		RecordEvery:         cfg.Cluster.M() * recordEvery,
		Name:                "ssp",
	})
	if err != nil {
		return nil, fmt.Errorf("ssp: %w", err)
	}
	out.Curves = append(out.Curves, sspRes.Curve)
	out.FinalLoss["ssp"] = sspRes.FinalLoss
	return out, nil
}

// LossAt samples every curve at the given simulated time (step interpolation).
func (lc *LossCurves) LossAt(t float64) map[string]float64 {
	out := make(map[string]float64, len(lc.Curves))
	for i := range lc.Curves {
		out[lc.Curves[i].Name] = lc.Curves[i].YAt(t)
	}
	return out
}

// LossTable renders loss samples at a few checkpoints of the shortest
// curve's horizon — the textual equivalent of Fig. 4.
func (lc *LossCurves) LossTable(points int) *metrics.Table {
	if points <= 0 {
		points = 5
	}
	// Use the minimum final time across curves as the shared horizon.
	horizon := 0.0
	for i := range lc.Curves {
		pts := lc.Curves[i].Points
		if len(pts) == 0 {
			continue
		}
		end := pts[len(pts)-1].X
		if horizon == 0 || end < horizon {
			horizon = end
		}
	}
	header := []string{"time(s)"}
	for i := range lc.Curves {
		header = append(header, lc.Curves[i].Name)
	}
	t := &metrics.Table{Header: header}
	for p := 1; p <= points; p++ {
		x := horizon * float64(p) / float64(points)
		cells := []string{metrics.F(x)}
		for i := range lc.Curves {
			cells = append(cells, metrics.F(lc.Curves[i].YAt(x)))
		}
		t.AddRow(cells...)
	}
	return t
}
