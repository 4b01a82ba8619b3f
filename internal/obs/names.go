package obs

// This file is the single home of every metric family name and label the
// telemetry plane exposes. `make lint` greps for "hetgc_ string literals
// outside this file and fails when it finds one, so that the sim and the
// live runtimes can never drift apart on naming: both update gauges and
// counters exclusively through the *Metrics helpers, which reference these
// constants. Scrapes of a simulated run and a live run are diffable
// family-for-family.

// Metric family names (Prometheus text exposition).
const (
	// Training loop.
	MIterationsTotal  = "hetgc_iterations_total"
	MIterationSeconds = "hetgc_iteration_seconds"
	MPhaseSeconds     = "hetgc_phase_seconds"

	// Elastic controller (estimate -> allocate -> re-code loop).
	MPlanEpoch           = "hetgc_plan_epoch"
	MReplansTotal        = "hetgc_replans_total"
	MDriftGain           = "hetgc_drift_gain"
	MThroughputEstimate  = "hetgc_worker_throughput_estimate"
	MTelemetrySamplesTot = "hetgc_telemetry_samples_total"

	// Roster membership.
	MRosterMembers = "hetgc_roster_members"
	MJoinsTotal    = "hetgc_roster_joins_total"
	MDeathsTotal   = "hetgc_roster_deaths_total"
	MRejectedTotal = "hetgc_rejected_uploads_total"
	MEventsTotal   = "hetgc_events_total"

	// Straggler attribution: per-member contribution latency (broadcast to
	// the member's gradient arriving at its master) and per-member erasure
	// counters (uploads that were fenced, skipped or lost, by reason). Both
	// feed the /debug/stragglers rolling report.
	MContribSeconds = "hetgc_member_contribution_seconds"
	MErasuresTotal  = "hetgc_member_erasures_total"

	// Decode-plan cache.
	MCacheHits     = "hetgc_decode_cache_hits"
	MCacheMisses   = "hetgc_decode_cache_misses"
	MCacheHitRatio = "hetgc_decode_cache_hit_ratio"

	// Checkpoint durability.
	MSnapshotAgeSeconds = "hetgc_checkpoint_snapshot_age_seconds"
	MJournalLagEpochs   = "hetgc_checkpoint_journal_lag_epochs"
	MAppendSeconds      = "hetgc_checkpoint_append_seconds"
	MSnapshotSeconds    = "hetgc_checkpoint_snapshot_seconds"

	// HA lease / fencing.
	MLeaseGeneration   = "hetgc_ha_lease_generation"
	MLeaseRenewalsTot  = "hetgc_ha_lease_renewals_total"
	MFencedWritesTotal = "hetgc_ha_fenced_writes_total"
	MPromotionsTotal   = "hetgc_ha_promotions_total"

	// Transport wire plane (process-wide).
	MWireFramesInTotal  = "hetgc_wire_frames_in_total"
	MWireFramesOutTotal = "hetgc_wire_frames_out_total"
	MWireBytesInTotal   = "hetgc_wire_bytes_in_total"
	MWireBytesOutTotal  = "hetgc_wire_bytes_out_total"
	MWireBatchesTotal   = "hetgc_wire_batches_total"
	MWireMalformedTotal = "hetgc_wire_malformed_total"

	// Per-codec gradient payload traffic (labeled by codec: raw, int8).
	// Payload bytes only, so the ratio of int8's bytes to raw's directly
	// reads as its wire saving.
	MWireCodecFramesInTotal  = "hetgc_wire_codec_frames_in_total"
	MWireCodecFramesOutTotal = "hetgc_wire_codec_frames_out_total"
	MWireCodecBytesInTotal   = "hetgc_wire_codec_bytes_in_total"
	MWireCodecBytesOutTotal  = "hetgc_wire_codec_bytes_out_total"
)

// Label keys.
const (
	LPhase  = "phase"
	LReason = "reason"
	LGroup  = "group"
	LMember = "member"
	LKind   = "kind"
	LCodec  = "codec"
)

// Values for the rejected-upload reason label. They mirror roster.Stats
// field-for-field so the live counters and the end-of-run result structs
// always agree.
const (
	RStaleEpoch = "stale_epoch"
	RStaleConn  = "stale_conn"
	RStraggler  = "straggler"
	RMalformed  = "malformed"
	RFenced     = "fenced"
)

// RDead labels the partial member span (and erasure counter) of a member
// that died mid-iteration: its contribution never arrived, so its span
// record is root-synthesized and explicitly partial. It extends the R*
// reject reasons, which all describe uploads that did arrive.
const RDead = "dead"

// Values for the join kind label.
const (
	KJoin   = "join"
	KRejoin = "rejoin"
)

// Event kinds recorded in the structured journal and served from
// /debug/events.
const (
	EvReplan    = "replan"
	EvMigration = "migration"
	EvJoin      = "join"
	EvRejoin    = "rejoin"
	EvDeath     = "death"
	EvFailover  = "failover"
	EvFence     = "fence"
	EvSnapshot  = "snapshot"
)

// Replan reason values mirror elastic.ReplanEvent.Reason.
const (
	ReasonInitial = "initial"
	ReasonChurn   = "churn"
	ReasonDrift   = "drift"
)

// Training phases traced per iteration (broadcast -> collect -> decode ->
// reduce -> step -> persist).
const (
	PhaseBroadcast = "broadcast"
	PhaseCollect   = "collect"
	PhaseDecode    = "decode"
	PhaseReduce    = "reduce"
	PhaseStep      = "step"
	PhasePersist   = "persist"
)

// Member-local phases timed by workers and group masters and echoed
// upstream on the gradient upload. PhaseUpload is measured after the send
// completes, so a member reports the *previous* iteration's upload span;
// PhaseWire is root-synthesized — the residual between a member's measured
// phases and its observed contribution latency.
const (
	PhaseFetch   = "fetch"
	PhaseCompute = "compute"
	PhaseEncode  = "encode"
	PhaseUpload  = "upload"
	PhaseWire    = "wire"
)
