package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/hetgc/hetgc/internal/linalg"
)

func cacheTestStrategy(t *testing.T, seed int64) *Strategy {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st, err := NewHeterAware([]float64{1, 2, 3, 4, 4, 2, 1, 3}, 10, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDecodeCacheHitMissCounters(t *testing.T) {
	st := cacheTestStrategy(t, 1)
	alive := AliveFromStragglers(st.M(), []int{1, 5})

	if _, err := st.Decode(alive); err != nil {
		t.Fatal(err)
	}
	stats := st.DecodeCacheStats()
	if stats.Misses != 1 || stats.Hits != 0 || stats.Size != 1 {
		t.Fatalf("after first decode: %+v", stats)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Decode(alive); err != nil {
			t.Fatal(err)
		}
	}
	stats = st.DecodeCacheStats()
	if stats.Hits != 5 || stats.Misses != 1 {
		t.Fatalf("after repeats: %+v", stats)
	}
	if hr := stats.HitRate(); hr < 0.83 || hr > 0.84 {
		t.Fatalf("hit rate = %v", hr)
	}
}

// TestDecodeCacheMissMatchesOnlineSolve pins the fallback contract: a miss
// must produce byte-identical coefficients to the online solve.
func TestDecodeCacheMissMatchesOnlineSolve(t *testing.T) {
	st := cacheTestStrategy(t, 2)
	for _, stragglers := range [][]int{nil, {0}, {3}, {2, 6}, {0, 7}} {
		alive := AliveFromStragglers(st.M(), stragglers)
		online, err := st.decode(alive) // uncached scheme dispatch
		if err != nil {
			t.Fatalf("pattern %v: %v", stragglers, err)
		}
		cached, err := st.Decode(alive) // populates + reads the cache
		if err != nil {
			t.Fatalf("pattern %v: %v", stragglers, err)
		}
		if !linalg.VecEqual(online, cached, 0) {
			t.Fatalf("pattern %v: cached coefficients differ from online solve", stragglers)
		}
		again, err := st.Decode(alive) // guaranteed hit
		if err != nil {
			t.Fatal(err)
		}
		if !linalg.VecEqual(online, again, 0) {
			t.Fatalf("pattern %v: cache hit differs from online solve", stragglers)
		}
	}
}

func TestDecodeCacheBounded(t *testing.T) {
	st := cacheTestStrategy(t, 3)
	st.SetDecodeCacheCapacity(4)
	m := st.M()
	// More distinct patterns than capacity.
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			if _, err := st.Decode(AliveFromStragglers(m, []int{a, b})); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.DecodeCacheStats()
	if stats.Size > 4 {
		t.Fatalf("cache size %d exceeds capacity 4", stats.Size)
	}
	if stats.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if stats.Capacity != 4 {
		t.Fatalf("capacity = %d", stats.Capacity)
	}
	// Shrinking an over-full cache evicts down to the new bound.
	st.SetDecodeCacheCapacity(2)
	if got := st.DecodeCacheStats().Size; got > 2 {
		t.Fatalf("size %d after shrink", got)
	}
	// Restoring the default keeps working.
	st.SetDecodeCacheCapacity(0)
	if got := st.DecodeCacheStats().Capacity; got != DefaultDecodeCacheCapacity {
		t.Fatalf("capacity = %d", got)
	}
}

func TestDecodeCacheErrorsMemoised(t *testing.T) {
	st := cacheTestStrategy(t, 4)
	m := st.M()
	// Too many stragglers: undecodable, and the error result is cached too.
	alive := AliveFromStragglers(m, []int{0, 1, 2, 3, 4})
	if _, err := st.Decode(alive); err == nil {
		t.Fatal("want undecodable")
	}
	before := st.DecodeCacheStats()
	if _, err := st.Decode(alive); err == nil {
		t.Fatal("want undecodable")
	}
	after := st.DecodeCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("error result not served from cache: %+v -> %+v", before, after)
	}
}

// TestDecodeCacheConcurrentHammer drives the cache from many goroutines over
// overlapping patterns; run with -race this doubles as the data-race check
// required for the RWMutex fast path.
func TestDecodeCacheConcurrentHammer(t *testing.T) {
	st := cacheTestStrategy(t, 5)
	st.SetDecodeCacheCapacity(8) // force concurrent evictions too
	m := st.M()
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				var stragglers []int
				for len(stragglers) < rng.Intn(3) {
					w := rng.Intn(m)
					if !containsInt(stragglers, w) {
						stragglers = append(stragglers, w)
					}
				}
				coeffs, err := st.Decode(AliveFromStragglers(m, stragglers))
				if err != nil {
					errs <- err
					return
				}
				// Light read of the shared row (the ownership contract says
				// read-only, so reads from many goroutines must be safe).
				var sum float64
				for _, c := range coeffs {
					sum += c
				}
				_ = sum
				if i%50 == 0 {
					_ = st.DecodeCacheStats()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMakePlanKeyWideMasks(t *testing.T) {
	// 100 workers exercises the packed key's hi word.
	a := make([]bool, 100)
	for i := range a {
		a[i] = i%3 != 0
	}
	if k1, k2 := makePlanKey(a), makePlanKey(a); k1 != k2 {
		t.Fatal("packed keys not stable")
	}
	k1 := makePlanKey(a)
	a[99] = !a[99]
	if makePlanKey(a) == k1 {
		t.Fatal("distinct packed masks collide")
	}
	// 200 workers exercises the string spill.
	w := make([]bool, 200)
	for i := range w {
		w[i] = i%2 == 0
	}
	if s1, s2 := makeWidePlanKey(w), makeWidePlanKey(w); s1 != s2 {
		t.Fatal("wide keys not stable")
	}
	s1 := makeWidePlanKey(w)
	w[199] = !w[199]
	if makeWidePlanKey(w) == s1 {
		t.Fatal("distinct wide masks collide")
	}
}

// TestDecodeCacheWideCluster drives Decode through the string-keyed spill map
// with a 130-worker naive strategy.
func TestDecodeCacheWideCluster(t *testing.T) {
	st, err := NewNaive(planKeyWidth + 2)
	if err != nil {
		t.Fatal(err)
	}
	alive := AliveFromStragglers(st.M(), nil)
	if _, err := st.Decode(alive); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Decode(alive); err != nil {
		t.Fatal(err)
	}
	stats := st.DecodeCacheStats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Size != 1 {
		t.Fatalf("wide-cluster cache stats: %+v", stats)
	}
}
