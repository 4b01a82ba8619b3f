package core

import (
	"math/rand"
	"testing"
)

// Decode-path ablation, gated by `make bench-compare` (README "Performance"):
// the paper's O(s³) null-space decoding versus the generic Gaussian fallback
// on the same strategy and patterns.

func benchStrategy(b *testing.B, m, s int) *Strategy {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	c := make([]float64, m)
	for i := range c {
		c[i] = float64(2 + 2*(i%4)) // vCPU-like heterogeneity 2,4,6,8
	}
	k := 0
	var sum float64
	for _, v := range c {
		sum += v
	}
	k = int(sum) / (s + 1)
	for k < m {
		k += int(sum) / (s + 1)
	}
	st, err := NewHeterAware(c, k, s, rng)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkDecodeNullSpacePath measures the λC/Σλ path (proof of Lemma 2).
func BenchmarkDecodeNullSpacePath(b *testing.B) {
	st := benchStrategy(b, 16, 2)
	m := st.M()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alive := AliveFromStragglers(m, []int{i % m, (i + 5) % m})
		if _, err := st.decodeNullSpace(alive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeGenericPath measures the fallback Gaussian solve
// B_Iᵀx = 1 on identical alive sets.
func BenchmarkDecodeGenericPath(b *testing.B) {
	st := benchStrategy(b, 16, 2)
	m := st.M()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alive := AliveFromStragglers(m, []int{i % m, (i + 5) % m})
		if _, err := st.decodeGeneric(alive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeCached measures the memoised path (steady-state master).
func BenchmarkDecodeCached(b *testing.B) {
	st := benchStrategy(b, 16, 2)
	alive := AliveFromStragglers(st.M(), []int{3, 9})
	if _, err := st.Decode(alive); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Decode(alive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeCacheHit measures the plan-cache hit path over a rotating
// set of repeated patterns (the steady-state master with regular
// stragglers): every lookup after warmup is a table hit.
func BenchmarkDecodeCacheHit(b *testing.B) {
	st := benchStrategy(b, 16, 2)
	m := st.M()
	// Warm every pattern the loop will visit.
	for i := 0; i < m; i++ {
		alive := AliveFromStragglers(m, []int{i % m, (i + 5) % m})
		if _, err := st.Decode(alive); err != nil {
			b.Fatal(err)
		}
	}
	alive := make([]bool, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alive {
			alive[j] = true
		}
		alive[i%m] = false
		alive[(i+5)%m] = false
		if _, err := st.Decode(alive); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if stats := st.DecodeCacheStats(); stats.Hits == 0 {
		b.Fatalf("expected cache hits: %+v", stats)
	}
}

// BenchmarkDecodeCacheMiss measures the miss path (online solve + insert) by
// keeping the cache capacity below the pattern working set, so every decode
// evicts and re-solves.
func BenchmarkDecodeCacheMiss(b *testing.B) {
	st := benchStrategy(b, 16, 2)
	st.SetDecodeCacheCapacity(1)
	m := st.M()
	alive := make([]bool, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alive {
			alive[j] = true
		}
		alive[i%m] = false
		alive[(i+5)%m] = false
		if _, err := st.Decode(alive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindGroups measures the Alg. 2 exact-cover search.
func BenchmarkFindGroups(b *testing.B) {
	st := benchStrategy(b, 16, 1)
	alloc := st.Allocation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if groups := FindGroups(alloc, 0); groups == nil {
			b.Fatal("nil groups")
		}
	}
}

// BenchmarkConstruction measures Alg. 1 end to end at m=32.
func BenchmarkConstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := make([]float64, 32)
	for i := range c {
		c[i] = float64(1 + i%5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewHeterAware(c, 96, 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}
