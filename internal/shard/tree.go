// Reduction tree: the cross-group aggregation topology. Group masters are
// the leaves; each internal node sums up to FanIn child results; the root's
// sum is the fully aggregated gradient. Depth gives the number of
// aggregation hops a group result traverses — the latency the co-simulation
// charges per iteration — and ReduceInto executes the same reduction over
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
// the summation order is fixed and the result deterministic. It is ReduceInto
// at α = 1 into a freshly allocated vector; inputs are not modified.
func (t *Tree) Aggregate(vectors [][]float64) ([]float64, error) {
	if len(vectors) != t.Leaves() {
		return nil, fmt.Errorf("shard tree: %d vectors for %d leaves", len(vectors), t.Leaves())
	}
	out := make([]float64, len(vectors[0]))
	if _, err := t.ReduceInto(out, 1, vectors); err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceInto writes alpha times the root sum of one vector per leaf into
// dst, overwriting it, and reports whether every element of it is finite:
// Aggregate, then Scale(alpha), then !InfOrNaN, bit for bit. Nodes are summed
// in Aggregate's order on the calling goroutine (the grad kernels fan a long
// vector out by themselves); the levels below the root node sum into pooled
// buffers, and the root node's sum, scale and check are one
// grad.SumMeanInto pass into dst. Inputs are not modified.
func (t *Tree) ReduceInto(dst []float64, alpha float64, vectors [][]float64) (bool, error) {
	if len(vectors) != t.Leaves() {
		return false, fmt.Errorf("shard tree: %d vectors for %d leaves", len(vectors), t.Leaves())
	}
	cur := make([]grad.Gradient, len(vectors))
	for i, v := range vectors {
		cur[i] = v
	}
	var pooled []grad.Gradient
	defer func() {
		for _, b := range pooled {
			grad.PutBuffer(b)
		}
	}()
	for level := 1; level < len(t.widths)-1; level++ {
		next := make([]grad.Gradient, t.widths[level])
		for j := range next {
			next[j] = grad.GetBuffer(len(dst))
			pooled = append(pooled, next[j])
			if err := grad.SumInto(next[j], cur[j*t.FanIn:min((j+1)*t.FanIn, len(cur))]); err != nil {
				return false, fmt.Errorf("shard tree level %d: %w", level, err)
			}
		}
		cur = next
	}
	finite, err := grad.SumMeanInto(dst, alpha, cur)
	if err != nil {
		return false, fmt.Errorf("shard tree root: %w", err)
	}
	return finite, nil
}
