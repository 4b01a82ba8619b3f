package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/transport"
)

// counters is one reading of every cumulative count the per-layer metrics
// are deltas of. A reading is a few dozen atomic loads, so the traced run
// takes one after every step and keeps the one at the warm-up boundary and
// the latest.
type counters struct {
	framesOut, bytesOut, gradBytes uint64
	allocs                         uint64
	encodeSum, uploadSum           float64
	encodeN, uploadN               uint64
	snapshots, stragglers, stale   uint64
	cacheHits, cacheMisses         float64
}

// traceData is everything a traced run collects: the program's own
// telemetry plane (trace ring, registry), the bench-owned decorators'
// spans, and counter readings at the edges of the measured window.
type traceData struct {
	w     *workload
	clock *stepClock
	tel   *obs.Metrics
	recs  []*workerRec
	// firstIter is the global index of the measured run's first iteration
	// (non-zero when it resumed a checkpoint).
	firstIter int
	warm      int

	// Registry handles resolved once: With takes a lock and allocates.
	encode, upload    *obs.Histogram
	stragglers, stale *obs.Counter
	runtimeSamples    []metrics.Sample
	base, last        counters
	peakHeap          uint64

	// Filled by finish.
	ids    []int                 // member ID per worker slot
	traces map[int]obs.IterTrace // by global iteration, measured ones only
}

func newTraceData(w *workload, clock *stepClock, firstIter, warm int) *traceData {
	// A private registry, the default event journal and a trace ring large
	// enough for the whole run.
	tel := obs.NewWith(obs.NewRegistry(), obs.NewJournal(0), obs.NewTracer(traceCap))
	td := &traceData{w: w, clock: clock, tel: tel, firstIter: firstIter, warm: warm}
	for i := 0; i < w.workers; i++ {
		td.recs = append(td.recs, &workerRec{})
	}
	td.encode = td.tel.PhaseSeconds.With(obs.PhaseEncode)
	td.upload = td.tel.PhaseSeconds.With(obs.PhaseUpload)
	td.stragglers = td.tel.Rejected.With(obs.RStraggler)
	td.stale = td.tel.Rejected.With(obs.RStaleEpoch)
	td.runtimeSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/memory/classes/heap/objects:bytes"}}
	clock.onStep = func(steps int) {
		c := td.read()
		if steps == warm {
			td.base = c
		}
		td.last = c
	}
	return td
}

func (td *traceData) read() counters {
	var c counters
	_, c.framesOut, _, c.bytesOut, _, _ = transport.Wire()
	for codec := byte(0); codec < byte(grad.NumCodecs); codec++ {
		_, _, _, out := transport.WireCodec(codec)
		c.gradBytes += out
	}
	metrics.Read(td.runtimeSamples)
	c.allocs = td.runtimeSamples[0].Value.Uint64()
	if heap := td.runtimeSamples[1].Value.Uint64(); heap > td.peakHeap {
		td.peakHeap = heap
	}
	c.encodeSum, c.encodeN = td.encode.Sum(), td.encode.Count()
	c.uploadSum, c.uploadN = td.upload.Sum(), td.upload.Count()
	c.snapshots = td.tel.SnapshotSeconds.Count()
	c.stragglers, c.stale = td.stragglers.Value(), td.stale.Value()
	c.cacheHits, c.cacheMisses = td.tel.CacheHits.Value(), td.tel.CacheMisses.Value()
	return c
}

// finish indexes the trace ring once the cluster is down.
func (td *traceData) finish(ids []int) {
	td.ids = ids
	td.traces = make(map[int]obs.IterTrace)
	lo, hi := td.firstIter+td.warm, td.firstIter+len(td.clock.returns)
	for _, tr := range td.tel.Tracer().Recent(0) {
		if tr.Iter >= lo && tr.Iter < hi {
			td.traces[tr.Iter] = tr
		}
	}
}

// measured returns the measured iterations' traces in order; iterations the
// ring no longer holds are skipped.
func (td *traceData) measured() []obs.IterTrace {
	var out []obs.IterTrace
	for it := td.firstIter + td.warm; it < td.firstIter+len(td.clock.returns); it++ {
		if tr, ok := td.traces[it]; ok {
			out = append(out, tr)
		}
	}
	return out
}

// phaseMS is the time trace tr spent in root phase name (a phase repeats
// when an iteration is retried), in milliseconds.
func phaseMS(tr obs.IterTrace, name string) float64 {
	var s float64
	for _, sp := range tr.Spans {
		if sp.Phase == name {
			s += sp.Seconds
		}
	}
	return s * 1e3
}

func spanSeconds(ms obs.MemberSpan, phase string) float64 {
	var s float64
	for _, sp := range ms.Spans {
		if sp.Phase == phase {
			s += sp.Seconds
		}
	}
	return s
}

var replanReasons = []string{obs.ReasonInitial, obs.ReasonChurn, obs.ReasonDrift, "adopt"}

// layerMetrics derives the per-layer metrics from the traced run. Root
// phases come from the trace ring by iteration; the worker tier's echoed
// encode/upload spans come from the phase histogram (the sharded root's
// ring holds groups, not workers) less the group tier's share of it; exact
// counts are deltas of cumulative counters over the measured window.
func (td *traceData) layerMetrics(intervals []float64) map[string]metric {
	traces := td.measured()
	iters := float64(len(intervals))
	p50 := median(intervals) * 1e3
	m := map[string]metric{}
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	rootPhase := func(phase string) float64 {
		var xs []float64
		for _, tr := range traces {
			xs = append(xs, phaseMS(tr, phase))
		}
		return median(xs)
	}

	ms("runtime.broadcast_ms", rootPhase(obs.PhaseBroadcast))
	ms("roster.collect_ms", rootPhase(obs.PhaseCollect))
	ms("shard.reduce_ms", rootPhase(obs.PhaseReduce))
	// Persist is periodic — a journal append every iteration, a snapshot every
	// fifth — so its median would hide the snapshots: it alone is a mean, and
	// its share is of the mean Step interval.
	var persist, total float64
	for _, tr := range traces {
		persist += phaseMS(tr, obs.PhasePersist)
	}
	for _, d := range intervals {
		total += d * 1e3
	}
	ms("checkpoint.persist_ms", persist/float64(max(len(traces), 1)))
	m["checkpoint.persist_share"] = metric{100 * persist / total, "%"}

	// The ring's members are the root's direct children: workers under the
	// flat master (group 0), group masters under the sharded root (group -1),
	// whose echoed "encode" span is the group-local decode.
	var residuals, groupDecode []float64
	var negative int
	var groupEncodeSum, groupUploadSum float64
	var groupEncodeN, groupUploadN uint64
	for _, tr := range traces {
		var slowestDecode float64
		for _, mem := range tr.Members {
			if mem.Partial {
				continue
			}
			r := mem.Arrival
			for _, sp := range mem.Spans {
				r -= sp.Seconds
				if mem.Group < 0 {
					switch sp.Phase {
					case obs.PhaseEncode:
						groupEncodeSum += sp.Seconds
						groupEncodeN++
					case obs.PhaseUpload:
						groupUploadSum += sp.Seconds
						groupUploadN++
					}
				}
			}
			if r < 0 {
				negative++
			}
			residuals = append(residuals, r*1e3)
			if mem.Group < 0 {
				if d := spanSeconds(mem, obs.PhaseEncode); d > slowestDecode {
					slowestDecode = d
				}
			}
		}
		groupDecode = append(groupDecode, slowestDecode*1e3)
	}
	if td.w.sharded {
		ms("core.decode_ms", median(groupDecode))
	} else {
		ms("core.decode_ms", rootPhase(obs.PhaseDecode))
	}
	ms("transport.wire_ms", median(residuals))
	count("transport.wire_negative", float64(negative))

	mean := func(sum float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return 1e3 * sum / float64(n)
	}
	d := td.last
	ms("grad.encode_ms", mean(d.encodeSum-td.base.encodeSum-groupEncodeSum, d.encodeN-td.base.encodeN-groupEncodeN))
	ms("transport.upload_ms", mean(d.uploadSum-td.base.uploadSum-groupUploadSum, d.uploadN-td.base.uploadN-groupUploadN))

	ms("ml.compute_ms", median(td.computePerIter()))
	var stepSelf []float64
	for _, sp := range td.clock.self[td.warm:] {
		stepSelf = append(stepSelf, sp.end.Sub(sp.start).Seconds()*1e3)
	}
	ms("ml.step_ms", median(stepSelf))
	var load time.Duration
	for _, rec := range td.recs {
		for _, sp := range rec.load {
			load += sp.end.Sub(sp.start)
		}
	}
	ms("dataplane.load_ms", load.Seconds()*1e3)

	count("transport.wire_bytes_per_iter", float64(d.bytesOut-td.base.bytesOut)/iters)
	count("transport.frames_per_iter", float64(d.framesOut-td.base.framesOut)/iters)
	count("transport.grad_bytes_per_iter", float64(d.gradBytes-td.base.gradBytes)/iters)
	hits, misses := d.cacheHits-td.base.cacheHits, d.cacheMisses-td.base.cacheMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m["core.decode_cache_hit_ratio"] = metric{ratio, "ratio"}
	count("checkpoint.snapshots", float64(d.snapshots-td.base.snapshots))
	var replans uint64
	for _, reason := range replanReasons {
		replans += td.tel.Replans.With(reason).Value()
	}
	count("elastic.replans", float64(replans))
	count("roster.stragglers_skipped", float64(d.stragglers-td.base.stragglers))
	count("roster.stale_rejected", float64(d.stale-td.base.stale))

	tailS, pct := tail(intervals)
	ms("root.iter_tail_ms", tailS*1e3)
	m["root.iter_tail_pct"] = metric{pct, "%"}
	ms("trace.iter_p50_ms", p50)
	count("bench.allocs_per_iter", float64(d.allocs-td.base.allocs)/iters)
	m["bench.peak_heap_mb"] = metric{float64(td.peakHeap) / (1 << 20), "MB"}
	return m
}

// window returns the measured Step interval index a moment falls in, or -1.
func (td *traceData) window(t time.Time) int {
	rs := td.clock.returns
	i := sort.Search(len(rs), func(i int) bool { return !rs[i].Before(t) })
	if i < td.warm || i >= len(rs) {
		return -1
	}
	return i - td.warm
}

// computePerIter is, per measured iteration, the time a worker spent in
// Model.Gradient, averaged over the workers, in milliseconds.
func (td *traceData) computePerIter() []float64 {
	out := make([]float64, len(td.clock.returns)-td.warm)
	for _, rec := range td.recs {
		for _, sp := range rec.gradient {
			if i := td.window(sp.start); i >= 0 {
				out[i] += sp.end.Sub(sp.start).Seconds() * 1e3 / float64(len(td.recs))
			}
		}
	}
	return out
}

// rootCoverage checks that the root's phase spans account for the Step
// interval: medians within a tenth of each other. An empty string means it
// holds.
func (td *traceData) rootCoverage(intervals []float64) string {
	var sums []float64
	for _, tr := range td.measured() {
		var s float64
		for _, sp := range tr.Spans {
			s += sp.Seconds
		}
		sums = append(sums, s)
	}
	spans, step := median(sums), median(intervals)
	if len(sums) == 0 || spans < 0.9*step || spans > 1.1*step {
		return fmt.Sprintf("root spans sum to %.3f ms per iteration (median of %d), the Step interval is %.3f ms: more than a tenth apart", spans*1e3, len(sums), step*1e3)
	}
	return ""
}

// spanRec is one line of the -trace-out dump. Times are nanoseconds since
// the Step return that ended warm-up.
type spanRec struct {
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   string `json:"parent"`
}

// phaseLayer names the layer each traced phase belongs to.
var phaseLayer = map[string]string{
	obs.PhaseBroadcast: "runtime", obs.PhaseCollect: "roster", obs.PhaseDecode: "core",
	obs.PhaseReduce: "shard", obs.PhaseStep: "ml", obs.PhasePersist: "checkpoint",
	obs.PhaseFetch: "dataplane", obs.PhaseCompute: "ml", obs.PhaseEncode: "grad", obs.PhaseUpload: "transport",
}

// spans flattens the traced run into span records. Root phases are laid end
// to end from the trace's start, which is how the runtime records them.
// A member's window runs from the broadcast's start to its arrival; the wire
// carries only the durations of its phases, so they are laid end to end to
// finish at the arrival (upload last), which leaves the wire residual as the
// window's self time. Decorator spans carry their own clock readings.
func (td *traceData) spans() []spanRec {
	origin := td.clock.returns[td.warm-1]
	ns := func(t time.Time) int64 { return t.Sub(origin).Nanoseconds() }
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	var out []spanRec
	add := func(iter int, layer, name, parent string, start, end time.Time) {
		out = append(out, spanRec{td.w.name, iter, layer, name, ns(start), ns(end), parent})
	}
	for _, tr := range td.measured() {
		add(tr.Iter, "root", "trace", "", tr.Start, tr.Start.Add(dur(tr.Seconds)))
		cursor, broadcast := tr.Start, tr.Start
		for i, sp := range tr.Spans {
			if sp.Phase == obs.PhaseBroadcast && i == 0 {
				broadcast = cursor
			}
			end := cursor.Add(dur(sp.Seconds))
			add(tr.Iter, phaseLayer[sp.Phase], sp.Phase, "trace", cursor, end)
			cursor = end
		}
		for _, mem := range tr.Members {
			name := fmt.Sprintf("member/%d", mem.Member)
			if mem.Partial {
				name = fmt.Sprintf("erased/%d/%s", mem.Member, mem.Reason)
			}
			arrival := broadcast.Add(dur(mem.Arrival))
			add(tr.Iter, "roster", name, obs.PhaseCollect, broadcast, arrival)
			var total float64
			for _, sp := range mem.Spans {
				total += sp.Seconds
			}
			at := arrival.Add(-dur(total))
			for _, sp := range mem.Spans {
				end := at.Add(dur(sp.Seconds))
				add(tr.Iter, phaseLayer[sp.Phase], sp.Phase, name, at, end)
				at = end
			}
		}
	}
	first := td.firstIter + td.warm
	for i := td.warm; i < len(td.clock.returns); i++ {
		add(td.firstIter+i, "bench", "step_interval", "", td.clock.returns[i-1], td.clock.returns[i])
		add(td.firstIter+i, "ml", "sgd_step", obs.PhaseStep, td.clock.self[i].start, td.clock.self[i].end)
	}
	for slot, rec := range td.recs {
		parent := fmt.Sprintf("member/%d", td.ids[slot])
		for _, sp := range rec.gradient {
			if i := td.window(sp.start); i >= 0 {
				add(first+i, "ml", "gradient", parent, sp.start, sp.end)
			}
		}
		for _, sp := range rec.load {
			if i := td.window(sp.start); i >= 0 {
				add(first+i, "dataplane", "partition_data", parent, sp.start, sp.end)
			}
		}
	}
	return out
}

func writeSpans(w io.Writer, recs []spanRec) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// covered is the length of the union of the given intervals clipped to
// [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// printBudget prints the per-workload budget table: for every kind of span,
// the median over iterations of its mean duration and of its self time —
// duration less what its child spans cover — and the duration's share of
// the median Step interval.
func printBudget(w io.Writer, name string, recs []spanRec, stepMS float64) {
	type key struct {
		iter int
		name string
	}
	children := map[key][][2]int64{}
	for _, r := range recs {
		if r.Parent != "" {
			k := key{r.Iter, r.Parent}
			children[k] = append(children[k], [2]int64{r.StartNS, r.EndNS})
		}
	}
	type acc struct{ dur, self, n float64 }
	perIter := map[string]map[int]*acc{}
	for _, r := range recs {
		kind := r.Layer + "." + strings.SplitN(r.Name, "/", 2)[0]
		if perIter[kind] == nil {
			perIter[kind] = map[int]*acc{}
		}
		a := perIter[kind][r.Iter]
		if a == nil {
			a = &acc{}
			perIter[kind][r.Iter] = a
		}
		d := r.EndNS - r.StartNS
		a.dur += float64(d)
		a.self += float64(d - covered(r.StartNS, r.EndNS, children[key{r.Iter, r.Name}]))
		a.n++
	}
	kinds := make([]string, 0, len(perIter))
	for k := range perIter {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "budget %s (median Step interval %.3f ms)\n", name, stepMS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\titerations\tmedian ms\tself ms\tshare of Step interval\t")
	for _, k := range kinds {
		var durs, selfs []float64
		for _, a := range perIter[k] {
			durs = append(durs, a.dur/a.n/1e6)
			selfs = append(selfs, a.self/a.n/1e6)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.1f %%\t\n", k, len(durs), median(durs), median(selfs), 100*median(durs)/stepMS)
	}
	tw.Flush()
}
