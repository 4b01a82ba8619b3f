// Package cluster models the heterogeneous worker fleets of the paper's
// evaluation (§VI, Table II). A cluster is a list of worker specs; each
// worker's gradient throughput c_i (partitions per second) is proportional
// to its vCPU count, matching the paper's observation that per-iteration
// compute time scales with the number of samples assigned.
package cluster

import (
	"errors"
	"fmt"
)

// ErrBadSpec is returned for invalid cluster definitions.
var ErrBadSpec = errors.New("cluster: invalid spec")

// Worker describes one machine.
type Worker struct {
	// VCPUs is the virtual CPU count (QingCloud instance size in the paper).
	VCPUs int
	// BaseThroughput is the gradient-computation rate of a 1-vCPU machine,
	// expressed as full-dataset fractions per second (the unit used by the
	// simulator); the worker's throughput is VCPUs·BaseThroughput.
	BaseThroughput float64
}

// Throughput returns the worker's processing rate in datasets/second.
func (w Worker) Throughput() float64 { return float64(w.VCPUs) * w.BaseThroughput }

// Cluster is an ordered worker fleet.
type Cluster struct {
	Name    string
	Workers []Worker
}

// M returns the number of workers.
func (c *Cluster) M() int { return len(c.Workers) }

// Throughputs returns the per-worker throughput vector c_i.
func (c *Cluster) Throughputs() []float64 {
	out := make([]float64, len(c.Workers))
	for i, w := range c.Workers {
		out[i] = w.Throughput()
	}
	return out
}

// Validate checks that the cluster is non-empty with positive throughputs.
func (c *Cluster) Validate() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("%w: empty cluster %q", ErrBadSpec, c.Name)
	}
	for i, w := range c.Workers {
		if w.VCPUs <= 0 || w.BaseThroughput <= 0 {
			return fmt.Errorf("%w: worker %d has vcpus=%d base=%v", ErrBadSpec, i, w.VCPUs, w.BaseThroughput)
		}
	}
	return nil
}

// FromHistogram builds a cluster from a map of vCPU size → machine count,
// emitting workers in ascending vCPU order for determinism.
func FromHistogram(name string, counts map[int]int, baseThroughput float64) (*Cluster, error) {
	if baseThroughput <= 0 {
		return nil, fmt.Errorf("%w: base throughput %v", ErrBadSpec, baseThroughput)
	}
	sizes := make([]int, 0, len(counts))
	for size := range counts {
		sizes = append(sizes, size)
	}
	// Insertion sort: tiny slices.
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] < sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	c := &Cluster{Name: name}
	for _, size := range sizes {
		n := counts[size]
		if n < 0 || size <= 0 {
			return nil, fmt.Errorf("%w: %d machines of %d vCPUs", ErrBadSpec, n, size)
		}
		for i := 0; i < n; i++ {
			c.Workers = append(c.Workers, Worker{VCPUs: size, BaseThroughput: baseThroughput})
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// defaultBase is the per-vCPU rate used by the Table II clusters: 0.01
// datasets/second per vCPU gives per-iteration times of a few seconds,
// matching the DNN-training iteration durations the paper cites.
const defaultBase = 0.01

// Table II of the paper: machines per vCPU class for the four evaluation
// clusters.
func table2(name string, c2, c4, c8, c12, c16 int) *Cluster {
	counts := map[int]int{}
	if c2 > 0 {
		counts[2] = c2
	}
	if c4 > 0 {
		counts[4] = c4
	}
	if c8 > 0 {
		counts[8] = c8
	}
	if c12 > 0 {
		counts[12] = c12
	}
	if c16 > 0 {
		counts[16] = c16
	}
	cl, err := FromHistogram(name, counts, defaultBase)
	if err != nil {
		// Static tables: a failure here is a programming error.
		panic(fmt.Sprintf("cluster: bad Table II spec %s: %v", name, err))
	}
	return cl
}

// ClusterA returns Table II Cluster-A: 8 workers (2×2, 2×4, 3×8, 1×12 vCPUs).
func ClusterA() *Cluster { return table2("Cluster-A", 2, 2, 3, 1, 0) }

// ClusterB returns Table II Cluster-B: 16 workers (2×2, 4×4, 8×8, 2×16).
func ClusterB() *Cluster { return table2("Cluster-B", 2, 4, 8, 0, 2) }

// ClusterC returns Table II Cluster-C: 32 workers (1×2, 4×4, 10×8, 12×12, 5×16).
func ClusterC() *Cluster { return table2("Cluster-C", 1, 4, 10, 12, 5) }

// ClusterD returns Table II Cluster-D: 58 workers (4×4, 20×8, 18×12, 16×16).
func ClusterD() *Cluster { return table2("Cluster-D", 0, 4, 20, 18, 16) }
