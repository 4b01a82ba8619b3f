// Package shard is the training root: it runs the paper's gradient-coding
// scheme in G ≥ 1 independently-coded groups, each over its own slice of the
// data partitions, and aggregates the per-group decoded sums up a
// configurable reduction tree. A flat deployment is the one-group root: it
// decodes one code over all m workers and can drop at most s stragglers
// cluster-wide; splitting the fleet into groups multiplies the
// tolerable straggler count to one budget *per group* while keeping each
// group's decode at small-cluster cost, which is what lets the scheme scale
// from tens to hundreds of workers.
//
// The decomposition is exact, not approximate: group g owns a disjoint set
// of global partitions, its local decode recovers Σ_{p∈parts(g)} g_p, and
// the reduction tree sums the group results, so the root obtains the same
// aggregated gradient a one-group root would have decoded.
package shard

import (
	"errors"
	"fmt"
	"sort"

	"github.com/hetgc/hetgc/internal/partition"
)

// ErrBadPlan marks invalid sharding configurations.
var ErrBadPlan = errors.New("shard: invalid plan config")

// PlanConfig parameterises the group layout (BuildPlanLayout).
type PlanConfig struct {
	// K is the global data-partition count; partitions are split across
	// groups proportionally to group capacity. S is the per-group straggler
	// budget: a sharded cluster of G groups tolerates up to S stragglers in
	// every group simultaneously.
	K, S int
	// GroupSize is the target number of workers per coding group
	// (default 10). The layout clamps the group count so that every group
	// keeps at least S+1 workers and at least one partition.
	GroupSize int
	// FanIn is the reduction-tree arity (default 4): how many child results
	// each aggregation node sums per hop.
	FanIn int
}

// DefaultGroupSize is the target coding-group size when none is configured —
// small enough that per-group decode stays on the fast path, large enough
// that the s-straggler budget is meaningful.
const DefaultGroupSize = 10

func (c *PlanConfig) withDefaults() PlanConfig {
	out := *c
	if out.GroupSize <= 0 {
		out.GroupSize = DefaultGroupSize
	}
	if out.FanIn <= 1 {
		out.FanIn = 4
	}
	return out
}

// Group is one coding group of the sharded plan.
type Group struct {
	// Workers are the global worker indices of this group, in ascending
	// order.
	Workers []int
	// Parts are the global partition IDs this group owns; the group
	// strategy's local partition j is global partition Parts[j].
	Parts []int
}

// Plan is a full sharded deployment plan.
type Plan struct {
	// K and S echo the config.
	K, S int
	// Groups are the coding groups; global partition ranges are contiguous
	// in group order.
	Groups []*Group
	// Tree is the reduction tree over the groups.
	Tree *Tree

	groupOf []int // global worker index -> group index
}

// NumGroups returns the number of coding groups.
func (p *Plan) NumGroups() int { return len(p.Groups) }

// GroupOf returns the group index owning a global worker, or -1 when the
// worker is outside the plan.
func (p *Plan) GroupOf(worker int) int {
	if worker < 0 || worker >= len(p.groupOf) {
		return -1
	}
	return p.groupOf[worker]
}

// BuildPlanLayout shards m workers (identified by their index in
// throughputs) into coding groups, fully deterministically:
//
//  1. The group count is ceil(m/GroupSize), clamped so every group keeps at
//     least S+1 workers and at least one partition.
//  2. Workers are dealt into groups snake-wise in descending-throughput
//     order, so group capacities stay balanced and each group gets a spread
//     of speeds, from its share of the fastest to its share of the slowest.
//  3. The K global partitions are split into contiguous per-group ranges
//     sized proportionally to group capacity (partition.SplitByCapacity).
//
// It builds no strategies: each group's elastic controller builds its own
// code from the group's estimates on its initial replan.
func BuildPlanLayout(throughputs []float64, cfg PlanConfig) (*Plan, error) {
	c := cfg.withDefaults()
	m := len(throughputs)
	if m == 0 || c.K <= 0 || c.S < 0 {
		return nil, fmt.Errorf("%w: m=%d k=%d s=%d", ErrBadPlan, m, c.K, c.S)
	}
	for i, t := range throughputs {
		if t <= 0 {
			return nil, fmt.Errorf("%w: throughput[%d]=%v", ErrBadPlan, i, t)
		}
	}
	if m < c.S+1 {
		return nil, fmt.Errorf("%w: %d workers cannot sustain s=%d (need ≥ s+1)", ErrBadPlan, m, c.S)
	}
	groups := groupWorkers(throughputs, m, c)
	caps := make([]float64, len(groups))
	for g, ws := range groups {
		for _, w := range ws {
			caps[g] += throughputs[w]
		}
	}
	parts := partition.SplitByCapacity(c.K, caps)

	plan := &Plan{K: c.K, S: c.S, groupOf: make([]int, m)}
	base := 0
	for g, ws := range groups {
		kg := parts[g]
		for _, w := range ws {
			plan.groupOf[w] = g
		}
		ids := make([]int, kg)
		for j := range ids {
			ids[j] = base + j
		}
		base += kg
		plan.Groups = append(plan.Groups, &Group{Workers: ws, Parts: ids})
	}
	plan.Tree = NewTree(len(groups), c.FanIn)
	return plan, nil
}

// groupWorkers deals workers into groups snake-wise by descending
// throughput. The group count honours GroupSize but never drops a group
// below S+1 workers or leaves a group without a partition.
func groupWorkers(throughputs []float64, m int, c PlanConfig) [][]int {
	g := (m + c.GroupSize - 1) / c.GroupSize
	if max := m / (c.S + 1); g > max {
		g = max
	}
	if g > c.K {
		g = c.K
	}
	if g < 1 {
		g = 1
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if throughputs[order[a]] != throughputs[order[b]] {
			return throughputs[order[a]] > throughputs[order[b]]
		}
		return order[a] < order[b]
	})
	groups := make([][]int, g)
	for i, w := range order {
		round, pos := i/g, i%g
		if round%2 == 1 {
			pos = g - 1 - pos
		}
		groups[pos] = append(groups[pos], w)
	}
	for _, ws := range groups {
		sort.Ints(ws)
	}
	return groups
}
