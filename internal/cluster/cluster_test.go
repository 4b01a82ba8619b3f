package cluster

import (
	"errors"
	"testing"
)

func TestTable2ClusterSizes(t *testing.T) {
	cases := []struct {
		c    *Cluster
		want int
	}{
		{ClusterA(), 8},
		{ClusterB(), 16},
		{ClusterC(), 32},
		{ClusterD(), 58},
	}
	for _, tc := range cases {
		if tc.c.M() != tc.want {
			t.Fatalf("%s has %d workers, want %d", tc.c.Name, tc.c.M(), tc.want)
		}
		if err := tc.c.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.c.Name, err)
		}
	}
}

func TestClusterAComposition(t *testing.T) {
	counts := map[int]int{}
	for _, w := range ClusterA().Workers {
		counts[w.VCPUs]++
	}
	want := map[int]int{2: 2, 4: 2, 8: 3, 12: 1}
	for size, n := range want {
		if counts[size] != n {
			t.Fatalf("Cluster-A has %d machines of %d vCPUs, want %d", counts[size], size, n)
		}
	}
}

func TestThroughputProportionalToVCPUs(t *testing.T) {
	c := ClusterA()
	ths := c.Throughputs()
	for i, w := range c.Workers {
		if ths[i] != float64(w.VCPUs)*defaultBase {
			t.Fatalf("throughput[%d] = %v", i, ths[i])
		}
	}
}

func TestFromHistogramErrors(t *testing.T) {
	if _, err := FromHistogram("x", map[int]int{4: 1}, 0); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v", err)
	}
	if _, err := FromHistogram("x", map[int]int{0: 1}, 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v", err)
	}
	if _, err := FromHistogram("x", nil, 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty cluster err = %v", err)
	}
}

func TestFromHistogramDeterministicOrder(t *testing.T) {
	a, err := FromHistogram("x", map[int]int{8: 1, 2: 1, 4: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 8}
	for i, w := range a.Workers {
		if w.VCPUs != want[i] {
			t.Fatalf("order = %v", a.Workers)
		}
	}
}

func TestValidateCatchesBadWorker(t *testing.T) {
	c := &Cluster{Name: "bad", Workers: []Worker{{VCPUs: 0, BaseThroughput: 1}}}
	if err := c.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v", err)
	}
}
