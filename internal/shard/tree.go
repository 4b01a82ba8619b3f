// Reduction tree: the cross-group aggregation topology. Group masters are
// the leaves; each internal node sums up to FanIn child results; the root's
// sum is the fully aggregated gradient. Depth gives the number of
// aggregation hops a group result traverses — the latency the co-simulation
// charges per iteration — and Aggregate executes the same reduction over
// real vectors.
package shard

import (
	"fmt"

	"github.com/hetgc/hetgc/internal/grad"
)

// Tree is a FanIn-ary reduction tree over a fixed number of leaves.
type Tree struct {
	// FanIn is the arity: children summed per node per hop.
	FanIn int
	// widths[l] is the node count at level l (level 0 = leaves); the last
	// level has a single root node.
	widths []int
}

// NewTree builds a reduction tree over `leaves` leaf nodes with the given
// fan-in (minimum 2).
func NewTree(leaves, fanIn int) *Tree {
	if leaves < 1 {
		leaves = 1
	}
	if fanIn < 2 {
		fanIn = 2
	}
	t := &Tree{FanIn: fanIn, widths: []int{leaves}}
	for w := leaves; w > 1; {
		w = (w + fanIn - 1) / fanIn
		t.widths = append(t.widths, w)
	}
	return t
}

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return t.widths[0] }

// Depth returns the number of aggregation hops from a leaf to the root
// (0 when a single group feeds the root directly).
func (t *Tree) Depth() int { return len(t.widths) - 1 }

// Aggregate reduces one vector per leaf to the root sum, level by level:
// node j of each level sums children j·FanIn … min((j+1)·FanIn, width)−1, so
// the summation order is fixed and the result deterministic. Nodes are summed
// in order on the calling goroutine (grad.SumInto fans a long vector out by
// itself). The returned slice is freshly allocated; inputs are not modified.
func (t *Tree) Aggregate(vectors [][]float64) ([]float64, error) {
	if len(vectors) != t.Leaves() {
		return nil, fmt.Errorf("shard tree: %d vectors for %d leaves", len(vectors), t.Leaves())
	}
	dim := len(vectors[0])
	cur := vectors
	gs := make([]grad.Gradient, 0, t.FanIn)
	for level := 1; level < len(t.widths); level++ {
		next := make([][]float64, t.widths[level])
		for j := range next {
			gs = gs[:0]
			for _, v := range cur[j*t.FanIn : min((j+1)*t.FanIn, len(cur))] {
				gs = append(gs, v)
			}
			next[j] = make([]float64, dim)
			if err := grad.SumInto(next[j], gs); err != nil {
				return nil, fmt.Errorf("shard tree level %d: %w", level, err)
			}
		}
		cur = next
	}
	if len(t.widths) == 1 {
		// Single leaf: the "reduction" is a copy, keeping inputs unmodified.
		return append([]float64(nil), cur[0]...), nil
	}
	return cur[0], nil
}
