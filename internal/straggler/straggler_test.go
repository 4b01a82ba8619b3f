package straggler

import (
	"math"
	"math/rand"
	"testing"
)

func TestNone(t *testing.T) {
	d := None{}.Delays(0, 4, nil)
	for _, v := range d {
		if v != 0 {
			t.Fatalf("delays = %v", d)
		}
	}
}

func TestFixedCountAndValue(t *testing.T) {
	inj, rng := Fixed{Count: 2, Delay: 5}, rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		d := inj.Delays(iter, 6, rng)
		n := 0
		for _, v := range d {
			if v == 5 {
				n++
			} else if v != 0 {
				t.Fatalf("unexpected delay %v", v)
			}
		}
		if n != 2 {
			t.Fatalf("iter %d: %d stragglers, want 2", iter, n)
		}
	}
}

func TestFixedCountExceedsM(t *testing.T) {
	d := Fixed{Count: 10, Delay: 1}.Delays(0, 3, rand.New(rand.NewSource(2)))
	for _, v := range d {
		if v != 1 {
			t.Fatalf("delays = %v, want all stragglers", d)
		}
	}
}

func TestFixedNilRngSafe(t *testing.T) {
	d := Fixed{Count: 2, Delay: 1}.Delays(0, 4, nil)
	for _, v := range d {
		if v != 0 {
			t.Fatal("nil rng must inject nothing")
		}
	}
}

func TestFixedRandomises(t *testing.T) {
	inj, rng := Fixed{Count: 1, Delay: 1}, rand.New(rand.NewSource(3))
	hit := map[int]bool{}
	for iter := 0; iter < 100; iter++ {
		d := inj.Delays(iter, 4, rng)
		for i, v := range d {
			if v > 0 {
				hit[i] = true
			}
		}
	}
	if len(hit) < 3 {
		t.Fatalf("straggler choice not randomized: %v", hit)
	}
}

func TestPinned(t *testing.T) {
	inj := Pinned{Workers: []int{1, 7}, Delay: 2.5}
	d := inj.Delays(0, 3, nil)
	if d[1] != 2.5 || d[0] != 0 || d[2] != 0 {
		t.Fatalf("delays = %v", d)
	}
}

func TestTransientStatistics(t *testing.T) {
	inj, rng := Transient{Prob: 0.5, Mean: 2}, rand.New(rand.NewSource(4))
	total, hits, iters, m := 0.0, 0, 2000, 4
	for iter := 0; iter < iters; iter++ {
		for _, v := range inj.Delays(iter, m, rng) {
			if v > 0 {
				hits++
				total += v
			}
		}
	}
	rate := float64(hits) / float64(iters*m)
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("hit rate = %v, want ~0.5", rate)
	}
	mean := total / float64(hits)
	if math.Abs(mean-2) > 0.2 {
		t.Fatalf("mean delay = %v, want ~2", mean)
	}
}

func TestTransientZeroProb(t *testing.T) {
	d := Transient{Prob: 0, Mean: 1}.Delays(0, 3, rand.New(rand.NewSource(5)))
	for _, v := range d {
		if v != 0 {
			t.Fatal("zero prob must inject nothing")
		}
	}
}

func TestComposeSumsAndInfDominates(t *testing.T) {
	inj := Compose{
		Pinned{Workers: []int{0}, Delay: 1},
		Pinned{Workers: []int{0, 1}, Delay: 2},
		Pinned{Workers: []int{2}, Delay: math.Inf(1)},
	}
	d := inj.Delays(0, 3, nil)
	if d[0] != 3 || d[1] != 2 || !math.IsInf(d[2], 1) {
		t.Fatalf("delays = %v", d)
	}
}
