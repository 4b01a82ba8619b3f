package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics bundles the canonical hetgc metric families plus the event
// journal and iteration tracer. Every instrumentation site in the repo
// goes through the nil-safe On* helpers below, so a nil *Metrics (the
// default: telemetry disabled) costs one branch and the live runtimes and
// the simulator can never diverge on family names.
type Metrics struct {
	reg     *Registry
	journal *Journal
	tracer  *Tracer

	// Training loop.
	Iterations   *Counter
	IterSeconds  *Histogram
	PhaseSeconds *HistogramVec // phase

	// Elastic controller.
	PlanEpoch  *Gauge
	Replans    *CounterVec // reason
	DriftGain  *Gauge
	Throughput *GaugeVec // group, member
	Telemetry  *Counter

	// Roster.
	Members  *GaugeVec   // group
	Joins    *CounterVec // kind
	Deaths   *Counter
	Rejected *CounterVec // reason

	// Straggler attribution.
	Contrib  *HistogramVec // group, member
	Erasures *CounterVec   // group, member, reason

	// Decode cache. The gauges show process-wide totals; cacheHits and
	// cacheMisses accumulate them across strategy instances (every replan
	// builds a fresh strategy with zeroed counters, and the sharded runtime
	// has one per group) — see OnCacheDelta and CacheTracker.
	CacheHits     *Gauge
	CacheMisses   *Gauge
	CacheHitRatio *Gauge
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64

	// Checkpoint.
	JournalLag      *Gauge
	AppendSeconds   *Histogram
	SnapshotSeconds *Histogram
	lastSnapshot    atomic.Int64 // unix nanos of last snapshot; 0 = never

	// HA.
	LeaseGen      *Gauge
	LeaseRenewals *Counter
	FencedWrites  *Counter
	Promotions    *Counter

	wireOnce      sync.Once
	wireCodecOnce sync.Once
}

// New returns a Metrics bundle on a fresh registry with a default-capacity
// event journal and tracer.
func New() *Metrics {
	return NewWith(NewRegistry(), NewJournal(0), NewTracer(0))
}

// NewWith builds the canonical families on reg. journal and tracer may be
// nil to disable the event ring or tracing.
func NewWith(reg *Registry, journal *Journal, tracer *Tracer) *Metrics {
	m := &Metrics{reg: reg, journal: journal, tracer: tracer}

	m.Iterations = reg.Counter(MIterationsTotal, "Completed training iterations.")
	m.IterSeconds = reg.Histogram(MIterationSeconds, "End-to-end iteration latency in seconds.", nil)
	m.PhaseSeconds = reg.HistogramVec(MPhaseSeconds, "Per-phase iteration latency in seconds.", nil, LPhase)

	m.PlanEpoch = reg.Gauge(MPlanEpoch, "Current coding-plan epoch.")
	m.Replans = reg.CounterVec(MReplansTotal, "Plan migrations by trigger reason.", LReason)
	m.DriftGain = reg.Gauge(MDriftGain, "Estimated speedup of replanning now versus keeping the current allocation (>1 favors a replan).")
	m.Throughput = reg.GaugeVec(MThroughputEstimate, "EWMA per-worker throughput estimate (work units per second).", LGroup, LMember)
	m.Telemetry = reg.Counter(MTelemetrySamplesTot, "Per-iteration telemetry samples folded into throughput estimates.")

	m.Members = reg.GaugeVec(MRosterMembers, "Live roster members per group (group 0 is the flat runtime or the shard root).", LGroup)
	m.Joins = reg.CounterVec(MJoinsTotal, "Accepted worker handshakes by kind (join or rejoin).", LKind)
	m.Deaths = reg.Counter(MDeathsTotal, "Workers declared dead (connection loss or read error).")
	m.Rejected = reg.CounterVec(MRejectedTotal, "Uploads rejected during collect, by reason.", LReason)

	m.Contrib = reg.HistogramVec(MContribSeconds, "Per-member contribution latency in seconds (parameter broadcast to the member's gradient arriving at its master).", nil, LGroup, LMember)
	m.Erasures = reg.CounterVec(MErasuresTotal, "Per-member erased contributions (fenced, skipped or lost uploads), by reason.", LGroup, LMember, LReason)

	m.CacheHits = reg.Gauge(MCacheHits, "Decode-plan cache hits (snapshot of the strategy's cache counters).")
	m.CacheMisses = reg.Gauge(MCacheMisses, "Decode-plan cache misses.")
	m.CacheHitRatio = reg.Gauge(MCacheHitRatio, "Decode-plan cache hit ratio in [0,1].")

	m.JournalLag = reg.Gauge(MJournalLagEpochs, "Journal entries appended since the last snapshot (replay cost on recovery).")
	m.AppendSeconds = reg.Histogram(MAppendSeconds, "Checkpoint journal append+flush latency in seconds.", nil)
	m.SnapshotSeconds = reg.Histogram(MSnapshotSeconds, "Checkpoint snapshot write+fsync+rename latency in seconds.", nil)
	reg.GaugeFunc(MSnapshotAgeSeconds, "Seconds since the last completed snapshot (0 when none yet).", func() float64 {
		ns := m.lastSnapshot.Load()
		if ns == 0 {
			return 0
		}
		return time.Since(time.Unix(0, ns)).Seconds()
	})

	m.LeaseGen = reg.Gauge(MLeaseGeneration, "Root lease generation currently held (fencing token).")
	m.LeaseRenewals = reg.Counter(MLeaseRenewalsTot, "Successful lease renewals.")
	m.FencedWrites = reg.Counter(MFencedWritesTotal, "Writes rejected by lease fencing (zombie root detected).")
	m.Promotions = reg.Counter(MPromotionsTotal, "Warm-standby promotions to active root.")

	if journal != nil {
		reg.CounterFunc(MEventsTotal, "Structured control-plane events recorded (including ones evicted from the ring).", journal.Total)
	}
	return m
}

// Registry returns the underlying registry (nil-safe).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Journal returns the event journal (nil-safe; may return nil).
func (m *Metrics) Journal() *Journal {
	if m == nil {
		return nil
	}
	return m.journal
}

// Tracer returns the iteration tracer (nil-safe; may return nil).
func (m *Metrics) Tracer() *Tracer {
	if m == nil {
		return nil
	}
	return m.tracer
}

// Serve starts the telemetry HTTP server on addr (host:port; port 0 picks
// a free one) exposing this bundle.
func (m *Metrics) Serve(addr string) (*Server, error) {
	return NewServer(addr, m)
}

// StartIter opens a traced iteration scope. Safe on a nil receiver (returns
// a nil scope whose methods no-op).
func (m *Metrics) StartIter(iter, epoch int) *IterScope {
	if m == nil {
		return nil
	}
	return &IterScope{m: m, tr: IterTrace{Iter: iter, Epoch: epoch, Start: time.Now()}}
}

// OnIteration records one completed iteration: counter, latency histogram
// and epoch gauge. The sim calls this directly; the live runtimes get it
// via IterScope.End. A negative epoch leaves the epoch gauge alone (the
// sharded root tracks per-group epochs through replan events instead).
func (m *Metrics) OnIteration(epoch int, seconds float64) {
	if m == nil {
		return
	}
	m.Iterations.Inc()
	m.IterSeconds.Observe(seconds)
	if epoch >= 0 {
		m.PlanEpoch.Set(float64(epoch))
	}
}

// OnReplan records a plan migration: reason-labeled counter, epoch gauge
// and a journal event.
func (m *Metrics) OnReplan(reason string, iter, epoch, members int) {
	if m == nil {
		return
	}
	m.Replans.With(reason).Inc()
	m.PlanEpoch.Set(float64(epoch))
	m.Event(Event{Kind: EvReplan, Iter: iter, Detail: reason + " epoch=" + strconv.Itoa(epoch) + " members=" + strconv.Itoa(members)})
}

// OnDrift updates the drift-gain gauge.
func (m *Metrics) OnDrift(gain float64) {
	if m == nil {
		return
	}
	m.DriftGain.Set(gain)
}

// OnEstimate updates one worker's EWMA throughput estimate gauge.
func (m *Metrics) OnEstimate(group, member int, rate float64) {
	if m == nil {
		return
	}
	m.Throughput.With(strconv.Itoa(group), strconv.Itoa(member)).Set(rate)
	m.Telemetry.Inc()
}

// OnMembers sets the live-member gauge for a group.
func (m *Metrics) OnMembers(group, alive int) {
	if m == nil {
		return
	}
	m.Members.With(strconv.Itoa(group)).Set(float64(alive))
}

// OnJoin records an accepted handshake plus the resulting member count.
func (m *Metrics) OnJoin(group, member int, rejoin bool, alive, iter int) {
	if m == nil {
		return
	}
	kind, ev := KJoin, EvJoin
	if rejoin {
		kind, ev = KRejoin, EvRejoin
	}
	m.Joins.With(kind).Inc()
	m.OnMembers(group, alive)
	m.Event(Event{Kind: ev, Iter: iter, Group: group, Member: member})
}

// OnDeath records a declared-dead worker plus the resulting member count.
func (m *Metrics) OnDeath(group, member, alive, iter int) {
	if m == nil {
		return
	}
	m.Deaths.Inc()
	m.OnMembers(group, alive)
	m.Event(Event{Kind: EvDeath, Iter: iter, Group: group, Member: member})
}

// OnReject counts one rejected upload by reason (see the R* constants).
func (m *Metrics) OnReject(reason string) {
	if m == nil {
		return
	}
	m.Rejected.With(reason).Inc()
}

// OnContribution observes one member's contribution latency — parameter
// broadcast to its decodable gradient arriving at its master.
func (m *Metrics) OnContribution(group, member int, seconds float64) {
	if m == nil {
		return
	}
	m.Contrib.With(strconv.Itoa(group), strconv.Itoa(member)).Observe(seconds)
}

// OnErasure counts one erased member contribution (fenced, skipped or lost)
// by reason — the labeled, per-member counterpart of OnReject.
func (m *Metrics) OnErasure(group, member int, reason string) {
	if m == nil {
		return
	}
	m.Erasures.With(strconv.Itoa(group), strconv.Itoa(member), reason).Inc()
}

// OnMemberSpan feeds the attribution families from one stitched member
// child span: the erasure counter for a partial one, the contribution
// histogram plus echoed phase spans for a full one. Every stitch site — the
// flat master's IterScope, the sharded group masters, the simulators — goes
// through here so the families can never diverge.
func (m *Metrics) OnMemberSpan(ms MemberSpan) {
	if m == nil {
		return
	}
	if ms.Partial {
		m.OnErasure(ms.Group, ms.Member, ms.Reason)
		return
	}
	m.OnContribution(ms.Group, ms.Member, ms.Arrival)
	for _, sp := range ms.Spans {
		m.PhaseSeconds.With(sp.Phase).Observe(sp.Seconds)
	}
}

// OnTrace records a fully-assembled iteration trace — the simulators' entry
// point, which builds synthetic traces from simulated finish times instead
// of wall-clock IterScopes. It feeds the same families stitching feeds live:
// the phase histogram for every root and member span, the contribution
// histogram and erasure counters per member, and the trace ring. It does NOT
// count the iteration itself (the sims call OnIteration separately, exactly
// as before).
func (m *Metrics) OnTrace(tr IterTrace) {
	if m == nil {
		return
	}
	for _, sp := range tr.Spans {
		m.PhaseSeconds.With(sp.Phase).Observe(sp.Seconds)
	}
	for _, ms := range tr.Members {
		m.OnMemberSpan(ms)
	}
	if tr.Crit == nil {
		tr.Crit = criticalPath(tr.Members)
	}
	m.tracer.record(tr)
}

// OnCache snapshots the decode-plan cache counters into gauges.
func (m *Metrics) OnCache(hits, misses uint64) {
	if m == nil {
		return
	}
	m.CacheHits.Set(float64(hits))
	m.CacheMisses.Set(float64(misses))
	if total := hits + misses; total > 0 {
		m.CacheHitRatio.Set(float64(hits) / float64(total))
	}
}

// OnCacheDelta folds a cache-counter increment into the process-wide cache
// gauges. Callers that watch a single cache instance whose counters can
// reset (a replanned strategy) should go through a CacheTracker instead of
// computing deltas by hand.
func (m *Metrics) OnCacheDelta(dHits, dMisses uint64) {
	if m == nil {
		return
	}
	m.OnCache(m.cacheHits.Add(dHits), m.cacheMisses.Add(dMisses))
}

// CacheTracker folds absolute snapshots of one cache instance at a time into
// a Metrics bundle's process-wide cache totals. key identifies the instance
// (the strategy pointer): when it changes — a replan installed a fresh
// strategy with zeroed counters — the baseline resets instead of producing a
// huge unsigned-wrap delta. Not safe for concurrent use; give each
// goroutine (each group master) its own tracker.
type CacheTracker struct {
	key          any
	hits, misses uint64
}

// Fold records the snapshot (hits, misses) of the cache identified by key.
func (t *CacheTracker) Fold(m *Metrics, key any, hits, misses uint64) {
	if m == nil {
		return
	}
	if key != t.key || hits < t.hits || misses < t.misses {
		t.key, t.hits, t.misses = key, 0, 0
	}
	m.OnCacheDelta(hits-t.hits, misses-t.misses)
	t.hits, t.misses = hits, misses
}

// OnAppend records one journal append (latency plus resulting replay lag).
func (m *Metrics) OnAppend(seconds float64, lagEntries int) {
	if m == nil {
		return
	}
	m.AppendSeconds.Observe(seconds)
	m.JournalLag.Set(float64(lagEntries))
}

// OnSnapshot records one completed snapshot; resets journal lag and the
// snapshot-age clock.
func (m *Metrics) OnSnapshot(seconds float64, iter int) {
	if m == nil {
		return
	}
	m.SnapshotSeconds.Observe(seconds)
	m.JournalLag.Set(0)
	m.lastSnapshot.Store(time.Now().UnixNano())
	m.Event(Event{Kind: EvSnapshot, Iter: iter})
}

// OnLease sets the held lease generation gauge.
func (m *Metrics) OnLease(gen uint64) {
	if m == nil {
		return
	}
	m.LeaseGen.Set(float64(gen))
}

// OnRenewal counts one successful lease renewal.
func (m *Metrics) OnRenewal() {
	if m == nil {
		return
	}
	m.LeaseRenewals.Inc()
}

// OnFencedWrite counts one write rejected by lease fencing and journals it.
func (m *Metrics) OnFencedWrite(iter int, detail string) {
	if m == nil {
		return
	}
	m.FencedWrites.Inc()
	m.Event(Event{Kind: EvFence, Iter: iter, Detail: detail})
}

// OnPromotion records a standby takeover at the given lease generation.
func (m *Metrics) OnPromotion(gen uint64, iter int) {
	if m == nil {
		return
	}
	m.Promotions.Inc()
	m.LeaseGen.Set(float64(gen))
	m.Event(Event{Kind: EvFailover, Iter: iter, Detail: "promoted at generation " + strconv.FormatUint(gen, 10)})
}

// Event appends a structured event to the journal (nil-safe).
func (m *Metrics) Event(ev Event) {
	if m == nil {
		return
	}
	m.journal.Append(ev)
}

// BindWire registers scrape-time counters over the process-wide transport
// wire statistics. fn returns frames in/out, bytes in/out, batch frames
// sent, and malformed frames. Idempotent: only the first call binds, so a
// root and the group runners it hosts can share one registry.
func (m *Metrics) BindWire(fn func() (framesIn, framesOut, bytesIn, bytesOut, batches, malformed uint64)) {
	if m == nil || fn == nil {
		return
	}
	m.wireOnce.Do(func() {
		m.reg.CounterFunc(MWireFramesInTotal, "Transport frames received.", func() uint64 {
			v, _, _, _, _, _ := fn()
			return v
		})
		m.reg.CounterFunc(MWireFramesOutTotal, "Transport frames sent.", func() uint64 {
			_, v, _, _, _, _ := fn()
			return v
		})
		m.reg.CounterFunc(MWireBytesInTotal, "Bytes read off transport connections.", func() uint64 {
			_, _, v, _, _, _ := fn()
			return v
		})
		m.reg.CounterFunc(MWireBytesOutTotal, "Bytes written to transport connections.", func() uint64 {
			_, _, _, v, _, _ := fn()
			return v
		})
		m.reg.CounterFunc(MWireBatchesTotal, "Coalesced batch frames sent.", func() uint64 {
			_, _, _, _, v, _ := fn()
			return v
		})
		m.reg.CounterFunc(MWireMalformedTotal, "Frames rejected as malformed on receive.", func() uint64 {
			_, _, _, _, _, v := fn()
			return v
		})
	})
}

// BindWireCodecs registers the per-codec gradient traffic families over the
// process-wide transport counters. names holds the label value for each
// codec byte (index = codec byte, e.g. grad's raw/int8) and
// fn snapshots one codec's counters. Idempotent like BindWire.
func (m *Metrics) BindWireCodecs(names []string, fn func(codec byte) (framesIn, framesOut, bytesIn, bytesOut uint64)) {
	if m == nil || fn == nil || len(names) == 0 {
		return
	}
	m.wireCodecOnce.Do(func() {
		framesIn := make(map[string]func() uint64, len(names))
		framesOut := make(map[string]func() uint64, len(names))
		bytesIn := make(map[string]func() uint64, len(names))
		bytesOut := make(map[string]func() uint64, len(names))
		for i, name := range names {
			c := byte(i)
			framesIn[name] = func() uint64 { v, _, _, _ := fn(c); return v }
			framesOut[name] = func() uint64 { _, v, _, _ := fn(c); return v }
			bytesIn[name] = func() uint64 { _, _, v, _ := fn(c); return v }
			bytesOut[name] = func() uint64 { _, _, _, v := fn(c); return v }
		}
		m.reg.CounterFuncVec(MWireCodecFramesInTotal, "Gradient frames received, by payload codec.", LCodec, framesIn)
		m.reg.CounterFuncVec(MWireCodecFramesOutTotal, "Gradient frames sent, by payload codec.", LCodec, framesOut)
		m.reg.CounterFuncVec(MWireCodecBytesInTotal, "Gradient payload bytes received, by codec (payload only, excluding framing).", LCodec, bytesIn)
		m.reg.CounterFuncVec(MWireCodecBytesOutTotal, "Gradient payload bytes sent, by codec (payload only, excluding framing).", LCodec, bytesOut)
	})
}
