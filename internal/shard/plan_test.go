package shard

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/planner"
)

func uniformRates(m int, rate float64) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = rate
	}
	return out
}

// groupStrategies builds each group's code from its members' rates in group
// order, as the group controllers' initial replans do.
func groupStrategies(t *testing.T, plan *Plan, thr []float64, scheme core.Kind, rng *rand.Rand) []*core.Strategy {
	t.Helper()
	out := make([]*core.Strategy, len(plan.Groups))
	for g, grp := range plan.Groups {
		gt := make([]float64, len(grp.Workers))
		for i, w := range grp.Workers {
			gt[i] = thr[w]
		}
		st, err := planner.BuildStrategy(scheme, gt, len(grp.Parts), plan.S, rng)
		if err != nil {
			t.Fatalf("group %d (m=%d k=%d s=%d): %v", g, len(grp.Workers), len(grp.Parts), plan.S, err)
		}
		out[g] = st
	}
	return out
}

func TestBuildPlanInvariants(t *testing.T) {
	cases := []struct {
		name   string
		m, k   int
		cfg    PlanConfig
		scheme core.Kind
	}{
		{"uniform-200", 200, 400, PlanConfig{K: 400, S: 1, GroupSize: 10}, core.HeterAware},
		{"small-flat", 5, 8, PlanConfig{K: 8, S: 1, GroupSize: 10}, core.HeterAware},
		{"skewed-60", 60, 120, PlanConfig{K: 120, S: 2, GroupSize: 8}, core.HeterAware},
		{"group-based", 40, 64, PlanConfig{K: 64, S: 1, GroupSize: 10}, core.GroupBased},
		{"k-limits-groups", 30, 2, PlanConfig{K: 2, S: 0, GroupSize: 3}, core.HeterAware},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			thr := make([]float64, tc.m)
			for i := range thr {
				thr[i] = 1 + float64(i%7)
			}
			plan, err := BuildPlanLayout(thr, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			strats := groupStrategies(t, plan, thr, tc.scheme, rand.New(rand.NewSource(5)))

			// Workers: disjoint cover of 0..m-1, each group ≥ s+1 workers,
			// GroupOf agrees with membership.
			seenW := make([]bool, tc.m)
			for g, grp := range plan.Groups {
				if len(grp.Workers) < tc.cfg.S+1 {
					t.Fatalf("group %d has %d workers < s+1=%d", g, len(grp.Workers), tc.cfg.S+1)
				}
				if len(grp.Workers) != strats[g].M() {
					t.Fatalf("group %d: %d workers but strategy m=%d", g, len(grp.Workers), strats[g].M())
				}
				for _, w := range grp.Workers {
					if seenW[w] {
						t.Fatalf("worker %d in two groups", w)
					}
					seenW[w] = true
					if plan.GroupOf(w) != g {
						t.Fatalf("GroupOf(%d) = %d, want %d", w, plan.GroupOf(w), g)
					}
				}
			}
			for w, ok := range seenW {
				if !ok {
					t.Fatalf("worker %d unassigned", w)
				}
			}

			// Partitions: disjoint cover of 0..k-1, aligned with each group
			// strategy's local k.
			seenP := make([]bool, tc.k)
			for g, grp := range plan.Groups {
				if len(grp.Parts) != strats[g].K() {
					t.Fatalf("group %d: %d parts but strategy k=%d", g, len(grp.Parts), strats[g].K())
				}
				if strats[g].S() != tc.cfg.S || strats[g].Kind() != tc.scheme {
					t.Fatalf("group %d: strategy %v s=%d, want %v s=%d", g, strats[g].Kind(), strats[g].S(), tc.scheme, tc.cfg.S)
				}
				for _, p := range grp.Parts {
					if p < 0 || p >= tc.k || seenP[p] {
						t.Fatalf("group %d: partition %d invalid or duplicated", g, p)
					}
					seenP[p] = true
				}
			}
			for p, ok := range seenP {
				if !ok {
					t.Fatalf("partition %d unowned", p)
				}
			}

			if plan.Tree.Leaves() != plan.NumGroups() {
				t.Fatalf("tree has %d leaves for %d groups", plan.Tree.Leaves(), plan.NumGroups())
			}
			if plan.GroupOf(-1) != -1 || plan.GroupOf(tc.m) != -1 {
				t.Fatal("GroupOf out of range should be -1")
			}
		})
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	thr := make([]float64, 97)
	for i := range thr {
		thr[i] = 1 + float64((i*13)%5)
	}
	cfg := PlanConfig{K: 150, S: 1, GroupSize: 9}
	a, err := BuildPlanLayout(thr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlanLayout(thr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(a.Groups), len(b.Groups))
	}
	sa := groupStrategies(t, a, thr, core.HeterAware, rand.New(rand.NewSource(21)))
	sb := groupStrategies(t, b, thr, core.HeterAware, rand.New(rand.NewSource(21)))
	for g := range a.Groups {
		if !reflect.DeepEqual(a.Groups[g].Workers, b.Groups[g].Workers) ||
			!reflect.DeepEqual(a.Groups[g].Parts, b.Groups[g].Parts) {
			t.Fatalf("group %d differs between identical builds", g)
		}
		if !reflect.DeepEqual(sa[g].Row(0), sb[g].Row(0)) {
			t.Fatalf("group %d coding rows differ between identically-seeded builds", g)
		}
	}
}

func TestBuildPlanBalancesCapacity(t *testing.T) {
	// Strongly heterogeneous fleet: snake dealing should keep group
	// capacities within a modest band of each other.
	rng := rand.New(rand.NewSource(2))
	thr := make([]float64, 80)
	for i := range thr {
		thr[i] = math.Exp(rng.NormFloat64())
	}
	plan, err := BuildPlanLayout(thr, PlanConfig{K: 160, S: 1, GroupSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, plan.NumGroups())
	lo, hi := math.Inf(1), 0.0
	for g, grp := range plan.Groups {
		for _, w := range grp.Workers {
			caps[g] += thr[w]
		}
		lo = math.Min(lo, caps[g])
		hi = math.Max(hi, caps[g])
	}
	if hi > 1.5*lo {
		t.Fatalf("group capacities unbalanced: min %.2f max %.2f (%v)", lo, hi, caps)
	}
}

func TestBuildPlanRejectsBadInput(t *testing.T) {
	cases := []struct {
		thr []float64
		cfg PlanConfig
	}{
		{nil, PlanConfig{K: 4, S: 1}},
		{[]float64{1, 2}, PlanConfig{K: 0, S: 1}},
		{[]float64{1, 2}, PlanConfig{K: 4, S: -1}},
		{[]float64{1, -2, 3}, PlanConfig{K: 4, S: 1}},
		{[]float64{1}, PlanConfig{K: 4, S: 1}}, // m < s+1
	}
	for i, tc := range cases {
		if _, err := BuildPlanLayout(tc.thr, tc.cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestTreeShape(t *testing.T) {
	cases := []struct {
		leaves, fanIn, depth int
	}{
		{1, 4, 0}, {2, 4, 1}, {4, 4, 1}, {5, 4, 2}, {16, 4, 2}, {17, 4, 3},
		{20, 2, 5}, {50, 8, 2},
	}
	for _, tc := range cases {
		tr := NewTree(tc.leaves, tc.fanIn)
		if tr.Leaves() != tc.leaves {
			t.Fatalf("leaves(%d,%d) = %d", tc.leaves, tc.fanIn, tr.Leaves())
		}
		if tr.Depth() != tc.depth {
			t.Fatalf("depth(%d,%d) = %d, want %d", tc.leaves, tc.fanIn, tr.Depth(), tc.depth)
		}
	}
}

func TestTreeAggregateMatchesFlatSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, leaves := range []int{1, 2, 3, 7, 16, 33} {
		for _, fanIn := range []int{2, 3, 4, 8} {
			const dim = 37
			vecs := make([][]float64, leaves)
			want := make([]float64, dim)
			for i := range vecs {
				vecs[i] = make([]float64, dim)
				for d := range vecs[i] {
					vecs[i][d] = rng.NormFloat64()
					want[d] += vecs[i][d]
				}
			}
			got, err := NewTree(leaves, fanIn).Aggregate(vecs)
			if err != nil {
				t.Fatal(err)
			}
			for d := range want {
				if math.Abs(got[d]-want[d]) > 1e-9 {
					t.Fatalf("leaves=%d fanIn=%d: dim %d: %v != %v", leaves, fanIn, d, got[d], want[d])
				}
			}
			// The sum is freshly allocated: writing it leaves the inputs be.
			got[0] = math.NaN()
			for i := range vecs {
				if math.IsNaN(vecs[i][0]) {
					t.Fatalf("leaves=%d fanIn=%d: the sum aliases input %d", leaves, fanIn, i)
				}
			}
		}
	}
	if _, err := NewTree(3, 2).Aggregate(make([][]float64, 2)); err == nil {
		t.Fatal("wrong leaf count: expected error")
	}
}
