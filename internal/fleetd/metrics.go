package fleetd

import (
	"flashwear/internal/obs"
	"flashwear/internal/runtrace"
)

// Metrics is fleetd's ops-domain instrument panel. Everything here
// measures the serving process — throughput, I/O cost, request traffic —
// and nothing here feeds back into campaign results: the determinism
// tests compare series/ledger/aggregate/sim-events and explicitly exclude
// this registry's output, which legitimately differs run to run.
type Metrics struct {
	Registry *obs.Registry

	// Sweep progress.
	CellsComputed *obs.Counter // (shard, epoch) cells simulated this process
	CellsReused   *obs.Counter // cells satisfied from a valid checkpoint
	DeviceDays    *obs.Counter // device-day units committed
	DeviceRate    *obs.RateMeter

	// Checkpoint I/O.
	CheckpointBytes  *obs.Counter
	CheckpointWrites *obs.Counter
	FsyncSeconds     *obs.Histogram
	// Host-fault resilience: write attempts burned on retries, and
	// whether any campaign is currently in checkpointing-paused
	// (degraded, in-memory carry) mode.
	CheckpointRetries  *obs.Counter
	CheckpointDegraded *obs.Gauge
	// Event-journal resilience, over every campaign's journal: failed
	// appends to its file, and replays of the parked events that made the
	// file whole again (obs.Journal's degraded mode).
	JournalPersistErrors *obs.Counter
	JournalRecoveries    *obs.Counter

	// Campaign lifecycle.
	Submits *obs.Counter
	Resumes *obs.Counter
	Forks   *obs.Counter

	HTTP *obs.HTTPMetrics

	// Execution phase split (DESIGN.md §14): wall time per runtrace
	// phase, fed by the tracer's observer on every span end. phase[] is
	// the pre-resolved child per phase so the span hot path skips the
	// vec's map lookup.
	PhaseSeconds *obs.HistogramVec
	phase        [runtrace.NumPhases]*obs.Histogram
}

// ObservePhase is the runtrace observer: it routes a finished span's
// duration to the fleetd_phase_seconds child for its phase.
func (m *Metrics) ObservePhase(p runtrace.Phase, seconds float64) {
	if p < runtrace.NumPhases {
		m.phase[p].Observe(seconds)
	}
}

// NewMetrics builds the fleetd metric set on a fresh registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{
		Registry: r,
		CellsComputed: r.Counter("fleetd_cells_computed_total",
			"Checkpoint cells (shard x epoch) simulated by this process."),
		CellsReused: r.Counter("fleetd_cells_reused_total",
			"Checkpoint cells satisfied from a valid on-disk checkpoint instead of recomputing."),
		DeviceDays: r.Counter("fleetd_device_days_total",
			"Device-day simulation units committed."),
		DeviceRate: r.RateMeter("fleetd_device_days_per_second",
			"Device-day throughput over the most recent epoch commit interval."),
		CheckpointBytes: r.Counter("fleetd_checkpoint_bytes_total",
			"Bytes written to completed checkpoint cell files."),
		CheckpointWrites: r.Counter("fleetd_checkpoint_writes_total",
			"Checkpoint cell files completed (fsynced and renamed into place)."),
		FsyncSeconds: r.Histogram("fleetd_checkpoint_fsync_seconds",
			"Latency of the fsync that makes a checkpoint cell durable.",
			obs.DurationBuckets),
		CheckpointRetries: r.Counter("fleetd_checkpoint_retries_total",
			"Checkpoint cell write attempts retried after a host I/O failure."),
		CheckpointDegraded: r.Gauge("fleetd_checkpoint_degraded",
			"1 while a campaign is in checkpointing-paused mode (simulating with in-memory state carry because checkpoint writes fail), else 0."),
		JournalPersistErrors: r.Counter("fleetd_journal_persist_errors_total",
			"Campaign event-journal writes or syncs that failed on the host; the events wait in memory for a replay."),
		JournalRecoveries: r.Counter("fleetd_journal_recoveries_total",
			"Campaign event-journal replays that wrote every parked event back to the file."),
		Submits: r.Counter("fleetd_campaign_submits_total",
			"Campaigns submitted."),
		Resumes: r.Counter("fleetd_campaign_resumes_total",
			"Campaign sweep resumes (operator resume or post-restart)."),
		Forks: r.Counter("fleetd_campaign_forks_total",
			"Campaigns created by forking."),
		HTTP: obs.NewHTTPMetrics(r, "fleetd"),
		PhaseSeconds: r.HistogramVec("fleetd_phase_seconds",
			"Wall time per campaign execution phase (simulate, checkpoint_encode, checkpoint_fsync, journal, aggregate, alert_eval).",
			obs.DurationBuckets, "phase"),
	}
	// Materialize every phase child up front so the families render on
	// the first scrape (not only after a span of that phase has ended).
	for p := runtrace.Phase(0); p < runtrace.NumPhases; p++ {
		m.phase[p] = m.PhaseSeconds.With(p.String())
	}
	runtrace.RegisterRuntimeGauges(r, "fleetd")
	return m
}
