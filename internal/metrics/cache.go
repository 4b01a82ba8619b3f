package metrics

import "sync/atomic"

// CacheStats is a point-in-time snapshot of a cache's counters, as reported
// by Strategy.DecodeCacheStats and friends.
type CacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that fell back to the slow path.
	Misses uint64
	// Evictions counts entries discarded to stay within Capacity.
	Evictions uint64
	// Size is the current number of cached entries.
	Size int
	// Capacity is the maximum number of entries the cache will hold.
	Capacity int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheCounters accumulates cache hit/miss/eviction counts. The zero value is
// ready to use and all methods are safe for concurrent use.
type CacheCounters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// Hit records a cache hit.
func (c *CacheCounters) Hit() { c.hits.Add(1) }

// Miss records a cache miss.
func (c *CacheCounters) Miss() { c.misses.Add(1) }

// AddEvictions records n evictions at once (batch eviction).
func (c *CacheCounters) AddEvictions(n int) {
	if n > 0 {
		c.evictions.Add(uint64(n))
	}
}

// Snapshot returns the current counts combined with the given size/capacity.
func (c *CacheCounters) Snapshot(size, capacity int) CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      size,
		Capacity:  capacity,
	}
}
