package main

import (
	"math"
	"slices"
	"time"

	"flashwear/internal/hostio"
	"flashwear/internal/runtrace"
)

// Paper references for core.paper_err_pct (EXPERIMENTS.md): full-scale host
// GiB per Type B indicator increment.
var paperGiBPerIncrement = map[string]float64{
	"chip_table1": 2210, // Table 1, 4 KiB random at 0% utilisation
	"phone_f2fs":  518,  // Figure 4, Moto E with F2FS
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ratio is a/b, or 0 when the layer did no work on this workload (b == 0):
// every traced run prints every per-layer name, so a layer that did not run
// reads 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emitHost prints the host layer: what the process cost the machine around
// the fastest plain pass, and how the plain passes spread.
func emitHost(emit emitFunc, passes []pass, best *pass, ref time.Duration, tmpfs bool) {
	days := best.res.deviceDays
	emit("host.ref_kernel_ms", float64(ref.Nanoseconds())/1e6, "ms")
	emit("host.alloc_kib_per_device_day", float64(best.allocBytes)/1024/days, "KiB")
	emit("host.mallocs_per_device_day", float64(best.mallocs)/days, "count")
	emit("host.gc_cpu_frac", ratio(best.gcCPU, best.cpu.Seconds()), "ratio")
	emit("host.peak_rss_mib", peakRSSMiB(), "MiB")
	emit("host.datadir_tmpfs", boolMetric(tmpfs), "bool")
	var walls []float64
	for _, p := range passes {
		if p.variant == variantPlain && p.err == nil {
			walls = append(walls, p.wall.Seconds())
		}
	}
	emit("pass_s.p50", median(walls), "s")
	emit("pass_s.max", slices.Max(walls), "s")
}

// overheadPct is how much slower the fastest pass of a variant is than the
// fastest pass of its baseline, in percent of the baseline.
func overheadPct(passes []pass, variant, baseline string) float64 {
	v, b := fastestOf(passes, variant), fastestOf(passes, baseline)
	if v == nil || b == nil {
		return 0
	}
	return 100 * (v.wall.Seconds() - b.wall.Seconds()) / b.wall.Seconds()
}

// emitWorkloadLayers prints the layers measured on the workload's own
// passes: exact sim-domain counters from the fastest plain pass, interposer
// and phase timings from the fastest traced pass, and the A/B overheads.
func emitWorkloadLayers(emit emitFunc, name string, passes []pass, best *pass) {
	days := best.res.deviceDays
	traced := fastestOf(passes, variantTraced)
	if traced == nil {
		traced = best
	}

	st := best.res.ftl
	host := float64(st.HostPagesWritten)
	emit("ftl.gc_copies_per_host_page", ratio(float64(best.res.gcCopies), host), "ratio")
	emit("ftl.drain_migrations_per_host_page", ratio(float64(st.DrainMigrations), host), "ratio")
	emit("ftl.nand_bytes_per_host_byte", ratio(float64(best.res.nandBytes), float64(st.HostBytesWritten)), "ratio")

	gib := best.res.hostGiBPerIncrement
	emit("core.host_gib_per_increment", gib, "GiB")
	if paper, ok := paperGiBPerIncrement[name]; ok {
		emit("core.paper_err_pct", 100*math.Abs(gib-paper)/paper, "%")
	} else {
		// Fleets have no paper reference: unvalidated, printed as 0.
		emit("core.paper_err_pct", 0, "%")
	}

	var rate2 float64
	if p2 := fastestOf(passes, variantTwoProcs); p2 != nil {
		rate2 = p2.res.deviceDays / p2.wall.Seconds()
	}
	emit("fleet.device_days_per_s_2p", rate2, "1/s")
	emit("fleet.scaling_eff", rate2/(2*days/best.wall.Seconds()), "ratio")

	ph := traced.res.phases
	sec := func(p runtrace.Phase) float64 { return ph[p].Seconds() }
	emit("fleetd.simulate_s", sec(runtrace.PhaseSimulate), "s")
	emit("fleetd.checkpoint_encode_s", sec(runtrace.PhaseCheckpointEncode), "s")
	emit("fleetd.checkpoint_fsync_s", sec(runtrace.PhaseCheckpointFsync), "s")
	emit("fleetd.journal_s", sec(runtrace.PhaseJournal), "s")
	emit("fleetd.aggregate_s", sec(runtrace.PhaseAggregate), "s")
	emit("fleetd.alert_eval_s", sec(runtrace.PhaseAlertEval), "s")
	var all float64
	for p := runtrace.Phase(0); p < runtrace.NumPhases; p++ {
		all += sec(p)
	}
	// The share of the campaign's traced thread-seconds that went into
	// writing cells. Decoding the previous cell is not a phase the program
	// traces: the cold resume, which does little else, costs it (wall time).
	ckpt := sec(runtrace.PhaseCheckpointEncode) + sec(runtrace.PhaseCheckpointFsync)
	emit("fleetd.ckpt_share", ratio(ckpt, all), "ratio")
	emit("fleetd.resume_s", traced.res.resumeSeconds, "s")
	emit("fleetd.cells_reused", float64(traced.res.cellsReused), "count")

	fsys := traced.res.hostio
	ck, jr, tot := fsys.Class(hostio.ClassCheckpoint), fsys.Class(hostio.ClassJournal), ioTally{}
	if fsys != nil {
		tot = fsys.Total()
	}
	cells := float64(traced.res.cells)
	emit("hostio.ckpt_kib_per_device_day", ratio(float64(ck.BytesWritten)/1024, days), "KiB")
	emit("hostio.journal_kib_per_epoch", ratio(float64(jr.BytesWritten)/1024, float64(traced.res.epochs)), "KiB")
	emit("hostio.write_calls_per_cell", ratio(float64(ck.WriteCalls), cells), "count")
	emit("hostio.fsyncs_per_cell", ratio(float64(ck.Syncs), cells), "count")
	emit("hostio.renames_per_cell", ratio(float64(ck.Renames), cells), "count")
	emit("hostio.write_s", tot.WriteTime.Seconds(), "s")
	emit("hostio.sync_s", tot.SyncTime.Seconds(), "s")
	emit("hostio.read_s", tot.ReadTime.Seconds(), "s")
	emit("hostio.read_kib_per_device_day", ratio(float64(tot.BytesRead)/1024, days), "KiB")

	emit("runtrace.record_overhead_pct", overheadPct(passes, variantRuntrace, variantPlain), "%")
	// WearTrace is on in the plain pass; the variant is the one without.
	emit("wtrace.overhead_pct", overheadPct(passes, variantPlain, variantNoWearTrace), "%")
	emit("bench.trace_overhead_pct", overheadPct(passes, variantTraced, variantPlain), "%")
}
