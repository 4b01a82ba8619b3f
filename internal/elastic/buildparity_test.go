package elastic_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hetgc/hetgc/internal/cluster"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/experiments"
	"github.com/hetgc/hetgc/internal/planner"
)

// TestInitialPlanMatchesBuildStrategy holds a controller's initial plan to the
// builder the paper's figures call with the cluster's throughputs: for every
// scheme, Table II cluster and s ∈ {1,2,3}, members joined with those
// throughputs as priors must plan the same B, bit for bit, from the same seed,
// and leave the rng at the same draw. A fixed-shape scheme plans with K = m;
// the proportional ones with ChooseK's k. The priors may be in datasets/s or
// in partitions/s (×k): only their ratios reach the code.
func TestInitialPlanMatchesBuildStrategy(t *testing.T) {
	kinds := []core.Kind{core.Naive, core.Cyclic, core.FractionalRepetition, core.HeterAware, core.GroupBased}
	clusters := []*cluster.Cluster{cluster.ClusterA(), cluster.ClusterB(), cluster.ClusterC(), cluster.ClusterD()}
	seed := int64(0)
	for _, cl := range clusters {
		est := cl.Throughputs()
		m := len(est)
		for s := 1; s <= 3; s++ {
			k := experiments.ChooseK(cl, s)
			for _, kind := range kinds {
				for _, scale := range []float64{1, float64(k)} {
					seed++
					wantRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					want, wantErr := planner.BuildStrategy(kind, est, k, s, wantRng)
					ctrlK := k
					if kind.FixedShape() {
						ctrlK = m
					}
					var plan *elastic.Plan
					ct, err := elastic.NewController(elastic.Config{K: ctrlK, S: s, Scheme: kind}, gotRng)
					if err == nil {
						for i, c := range est {
							ct.AddMember(i+1, c*scale)
						}
						plan, err = ct.Replan(0, "initial")
					}
					if wantErr != nil {
						if err == nil {
							t.Fatalf("%s s=%d %v: the builder fails (%v), the controller planned", cl.Name, s, kind, wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s s=%d %v ×%v: %v", cl.Name, s, kind, scale, err)
					}
					got := plan.Strategy
					if got.Kind() != want.Kind() || got.M() != m || got.K() != want.K() || got.S() != want.S() {
						t.Fatalf("%s s=%d %v ×%v: kind %v m %d k %d s %d, want %v m %d k %d s %d", cl.Name, s, kind, scale,
							got.Kind(), got.M(), got.K(), got.S(), want.Kind(), m, want.K(), want.S())
					}
					for i := 0; i < m; i++ {
						gr, wr := got.Row(i), want.Row(i)
						for j := range wr {
							if math.Float64bits(gr[j]) != math.Float64bits(wr[j]) {
								t.Fatalf("%s s=%d %v ×%v: B[%d][%d] = %v, want %v", cl.Name, s, kind, scale, i, j, gr[j], wr[j])
							}
						}
					}
					if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
						t.Fatalf("%s s=%d %v ×%v: the controller left its rng at a different draw", cl.Name, s, kind, scale)
					}
				}
			}
		}
	}
}
