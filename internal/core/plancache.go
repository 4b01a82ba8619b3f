package core

import (
	"sync/atomic"

	"github.com/hetgc/hetgc/internal/metrics"
)

// This file implements the decode-plan cache: the runtime realisation of the
// paper's §III.B observation that "the decoding matrix A could be partially
// stored specially for regular stragglers". Every alive-set pattern the
// master decodes is keyed and memoised, so recurring straggler patterns
// (chronically slow machines, repeated fault masks) decode by table lookup
// instead of re-running the O(s³)/O(n³) online solves. Irregular patterns
// still fall back to the online solve on miss — with byte-identical
// coefficients, since the cache stores exactly what the solve produced.
//
// Storage is two-level. Recent inserts land in a small overflow map guarded
// by Strategy.planMu; once the overflow outgrows a quarter of the snapshot
// it is folded into a fresh immutable open-addressing table published
// through an atomic pointer (geometric merging: amortized O(1) copies per
// insert). Steady-state hits probe the immutable table without taking any
// lock — the per-iteration master hot path.

// DefaultDecodeCacheCapacity bounds the number of cached decode plans per
// strategy. C(m,s) can be astronomically large, so the cache must be bounded;
// 4096 plans cover every pattern any realistic Table II-sized run revisits.
const DefaultDecodeCacheCapacity = 4096

// planKey is a comparable, allocation-free key for an alive mask of up to
// 128 workers. Clusters beyond 128 workers spill into a string-keyed shard
// (allocating, but still correct); a strategy's m is fixed, so each strategy
// only ever uses one of the two shards.
type planKey struct {
	lo, hi uint64
}

// planKeyWidth is the worker count the packed planKey covers.
const planKeyWidth = 128

// makePlanKey packs an alive mask with m ≤ planKeyWidth.
func makePlanKey(alive []bool) planKey {
	var k planKey
	for i, a := range alive {
		if !a {
			continue
		}
		if i < 64 {
			k.lo |= 1 << uint(i)
		} else {
			k.hi |= 1 << uint(i-64)
		}
	}
	return k
}

// makeWidePlanKey packs an alive mask of any width into a string.
func makeWidePlanKey(alive []bool) string {
	buf := make([]byte, (len(alive)+7)/8)
	for i, a := range alive {
		if a {
			buf[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return string(buf)
}

// decodeResult is one cached decode outcome: either the coefficient row or
// the (deterministic) decode error for that alive set.
type decodeResult struct {
	coeffs []float64
	err    error
}

// planMergeMin is the smallest overflow size that triggers a snapshot merge.
const planMergeMin = 8

// hashPlanKey is a 128→64 bit mix (splitmix64-style) good enough to spread
// alive masks across table slots.
func hashPlanKey(k planKey) uint64 {
	h := k.lo*0x9e3779b97f4a7c15 ^ k.hi*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// planTable is an immutable linear-probing hash table. Tables are built at
// ≤ 50% load so probes terminate at an empty slot; once published via the
// shard's atomic pointer a table is never mutated, making lock-free reads
// safe.
type planTable struct {
	mask  uint64
	slots []planSlot
	count int
}

type planSlot struct {
	key planKey
	res *decodeResult // nil marks an empty slot
}

// get probes for a key; nil means absent.
func (t *planTable) get(k planKey) *decodeResult {
	i := hashPlanKey(k) & t.mask
	for {
		s := &t.slots[i]
		if s.res == nil {
			return nil
		}
		if s.key == k {
			return s.res
		}
		i = (i + 1) & t.mask
	}
}

// newPlanTable builds a table holding the given entries at ≤ 50% load.
func newPlanTable(entries map[planKey]*decodeResult) *planTable {
	size := 8
	for size < 2*len(entries) {
		size *= 2
	}
	t := &planTable{mask: uint64(size - 1), slots: make([]planSlot, size), count: len(entries)}
	for k, res := range entries {
		i := hashPlanKey(k) & t.mask
		for t.slots[i].res != nil {
			i = (i + 1) & t.mask
		}
		t.slots[i] = planSlot{key: k, res: res}
	}
	return t
}

// planShard is the packed-key cache level pair. The snapshot is read without
// locks; the overflow map and all mutation are guarded by Strategy.planMu.
type planShard struct {
	snap     atomic.Pointer[planTable]
	overflow map[planKey]*decodeResult
}

// loadLocked checks both levels. Caller must hold planMu (read or write).
func (p *planShard) loadLocked(k planKey) (*decodeResult, bool) {
	if t := p.snap.Load(); t != nil {
		if res := t.get(k); res != nil {
			return res, true
		}
	}
	res, ok := p.overflow[k]
	return res, ok
}

// size returns the cached-entry count. Caller must hold planMu.
func (p *planShard) size() int {
	n := len(p.overflow)
	if t := p.snap.Load(); t != nil {
		n += t.count
	}
	return n
}

// store inserts a result the caller verified to be absent, evicting in batch
// at capacity and merging the overflow once it outgrows its share. Caller
// must hold planMu for writing. Returns the evicted count.
func (p *planShard) store(k planKey, res *decodeResult, capacity int) int {
	evicted := 0
	if p.size() >= capacity {
		// Rebuild at ~7/8 capacity so churn amortizes one O(n) rebuild over
		// capacity/8 misses instead of paying it per insert.
		evicted = p.shrinkTo(capacity - 1 - capacity/8)
	}
	if p.overflow == nil {
		p.overflow = make(map[planKey]*decodeResult, planMergeMin)
	}
	p.overflow[k] = res
	snapCount := 0
	if t := p.snap.Load(); t != nil {
		snapCount = t.count
	}
	if len(p.overflow) >= planMergeMin && len(p.overflow)*4 >= snapCount {
		p.merge()
	}
	return evicted
}

// entriesLocked collects every cached entry. Caller must hold planMu.
func (p *planShard) entriesLocked() map[planKey]*decodeResult {
	out := make(map[planKey]*decodeResult, p.size())
	if t := p.snap.Load(); t != nil {
		for _, s := range t.slots {
			if s.res != nil {
				out[s.key] = s.res
			}
		}
	}
	for k, res := range p.overflow {
		out[k] = res
	}
	return out
}

// merge folds the overflow into a fresh snapshot table. Caller must hold
// planMu for writing.
func (p *planShard) merge() {
	p.snap.Store(newPlanTable(p.entriesLocked()))
	p.overflow = nil
}

// shrinkTo drops arbitrary entries until at most target remain, publishing a
// rebuilt snapshot. Caller must hold planMu for writing. Returns the evicted
// count.
func (p *planShard) shrinkTo(target int) int {
	if target < 0 {
		target = 0
	}
	entries := p.entriesLocked()
	evicted := 0
	for k := range entries {
		if len(entries) <= target {
			break
		}
		delete(entries, k)
		evicted++
	}
	p.snap.Store(newPlanTable(entries))
	p.overflow = nil
	return evicted
}

// wideShard is the string-keyed spill for clusters beyond planKeyWidth
// workers. Large-m decodes are dominated by the solve itself, so a plain
// locked map is enough; planMu guards it.
type wideShard struct {
	m map[string]*decodeResult
}

func (p *wideShard) loadLocked(k string) (*decodeResult, bool) {
	res, ok := p.m[k]
	return res, ok
}

func (p *wideShard) store(k string, res *decodeResult, capacity int) int {
	evicted := 0
	if len(p.m) >= capacity {
		for victim := range p.m {
			delete(p.m, victim)
			evicted++
			if len(p.m) < capacity {
				break
			}
		}
	}
	if p.m == nil {
		p.m = make(map[string]*decodeResult)
	}
	p.m[k] = res
	return evicted
}

func (p *wideShard) shrinkTo(target int) int {
	if target < 0 {
		target = 0
	}
	evicted := 0
	for k := range p.m {
		if len(p.m) <= target {
			break
		}
		delete(p.m, k)
		evicted++
	}
	return evicted
}

// plansLocked re-checks an alive mask. Caller must hold st.planMu.
func (st *Strategy) plansLocked(alive []bool) (*decodeResult, bool) {
	if len(alive) <= planKeyWidth {
		return st.plans.loadLocked(makePlanKey(alive))
	}
	return st.plansWide.loadLocked(makeWidePlanKey(alive))
}

// storePlan inserts a decode result for an alive mask. Caller must hold
// st.planMu for writing and have checked the mask is not already present.
func (st *Strategy) storePlan(alive []bool, res *decodeResult) {
	var evicted int
	if len(alive) <= planKeyWidth {
		evicted = st.plans.store(makePlanKey(alive), res, st.planCapacity())
	} else {
		evicted = st.plansWide.store(makeWidePlanKey(alive), res, st.planCapacity())
	}
	st.planCounters.AddEvictions(evicted)
}

// cacheSizeLocked returns the total cached-plan count. Caller must hold
// st.planMu (read or write).
func (st *Strategy) cacheSizeLocked() int {
	return st.plans.size() + len(st.plansWide.m)
}

func (st *Strategy) planCapacity() int {
	if c := st.planCap.Load(); c > 0 {
		return int(c)
	}
	return DefaultDecodeCacheCapacity
}

// SetDecodeCacheCapacity bounds the decode-plan cache to n entries (n ≤ 0
// restores DefaultDecodeCacheCapacity). Shrinking evicts arbitrary entries.
func (st *Strategy) SetDecodeCacheCapacity(n int) {
	st.planMu.Lock()
	defer st.planMu.Unlock()
	st.planCap.Store(int64(n))
	capacity := st.planCapacity()
	if st.cacheSizeLocked() > capacity {
		evicted := st.plans.shrinkTo(capacity - len(st.plansWide.m))
		evicted += st.plansWide.shrinkTo(capacity - st.plans.size())
		st.planCounters.AddEvictions(evicted)
	}
}

// DecodeCacheStats snapshots the decode-plan cache counters: hits answer by
// table lookup, misses run the online solve (§III.B's irregular stragglers).
func (st *Strategy) DecodeCacheStats() metrics.CacheStats {
	st.planMu.RLock()
	size := st.cacheSizeLocked()
	st.planMu.RUnlock()
	return st.planCounters.Snapshot(size, st.planCapacity())
}
