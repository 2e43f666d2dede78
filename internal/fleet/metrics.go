package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"flashwear/internal/telemetry"
)

// Column layout of one MetricsSeries row. Every column is an integer sum
// over devices — full-scale (capacity scaling multiplied back) and, for the
// wear/error gauges, fixed-point — so that merging per-worker series is
// exactly associative and commutative, like the rest of the Accumulator.
// Derived floating-point columns (write amplification, population means)
// are computed only at render time, from identical integer sums, so the CSV
// is byte-identical across worker counts.
const (
	// mDevices counts contributing devices (constant down the series:
	// bricked devices freeze at their final snapshot, they do not drop out).
	mDevices = iota
	// mBricked counts devices dead at this instant.
	mBricked
	// mHostBytes is full-scale host data absorbed.
	mHostBytes
	// mFlashBytes is full-scale data physically programmed into NAND
	// (main + cache chips); mFlashBytes/mHostBytes is the population WA.
	mFlashBytes
	// mFlashErases is full-scale block erases (main + cache).
	mFlashErases
	// mBadBlocks is full-scale blocks retired (main + cache).
	mBadBlocks
	// mWearAvgMicro sums per-device average wear in micro-units (x1e6);
	// divide by mDevices for the population mean.
	mWearAvgMicro
	// mWearMaxMicro sums per-device maximum wear in micro-units; divide by
	// mDevices for the mean per-device hottest block.
	mWearMaxMicro
	// mRawBERFemto sums per-device expected raw bit error rate in
	// femto-units (x1e15).
	mRawBERFemto
	// mWearLevel sums per-device JEDEC Type B wear-indicator levels.
	mWearLevel

	metricCols
)

// MetricsSeries is the population wear trajectory: row k holds the
// integer-additive sums of every device's state at age (k+1)*Every.
type MetricsSeries struct {
	// Every is the full-scale sampling cadence.
	Every time.Duration
	// Rows is the series; each row has metricCols entries.
	Rows [][]int64
}

// metricRowCount is the fixed series length: one row per whole sampling
// interval within the horizon. Every device contributes exactly this many
// rows (early deaths pad with their frozen final snapshot), so merging
// never mixes rows from different ages.
func metricRowCount(spec Spec) int {
	horizon := time.Duration(spec.Days * 24 * float64(time.Hour))
	return int(horizon / spec.MetricsEvery)
}

func newMetricsSeries(spec Spec) *MetricsSeries {
	n := metricRowCount(spec)
	m := &MetricsSeries{Every: spec.MetricsEvery, Rows: make([][]int64, n)}
	for i := range m.Rows {
		m.Rows[i] = make([]int64, metricCols)
	}
	return m
}

// addDevice folds one device's padded row set into the series.
func (m *MetricsSeries) addDevice(rows [][]int64) {
	if len(rows) != len(m.Rows) {
		panic(fmt.Sprintf("fleet: device contributed %d metric rows, series has %d", len(rows), len(m.Rows)))
	}
	for i, r := range rows {
		for j, v := range r {
			m.Rows[i][j] += v
		}
	}
}

//flashvet:sim-sink fleet metrics series
func (m *MetricsSeries) merge(o *MetricsSeries) error {
	if o == nil {
		return nil
	}
	if m.Every != o.Every || len(m.Rows) != len(o.Rows) {
		return fmt.Errorf("fleet: merging mismatched metric series (%v/%d vs %v/%d)",
			m.Every, len(m.Rows), o.Every, len(o.Rows))
	}
	for i, r := range o.Rows {
		for j, v := range r {
			m.Rows[i][j] += v
		}
	}
	return nil
}

// WriteCSV renders the series with derived per-day population columns:
//
//	day, devices, bricked, host_gib, write_amp, wear_avg, wear_max,
//	raw_ber, wear_level, bad_blocks, flash_erases
//
// wear_avg/wear_max/raw_ber/wear_level are means over the population
// (wear_max is the mean of per-device hottest-block wear — a true
// population max would not merge additively). All floats derive from the
// series' integer sums, so output is byte-identical across worker counts.
func (m *MetricsSeries) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("day,devices,bricked,host_gib,write_amp,wear_avg,wear_max,raw_ber,wear_level,bad_blocks,flash_erases\n"); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for k, r := range m.Rows {
		devices := r[mDevices]
		ratio := func(numer int64, scale float64) float64 {
			if devices == 0 {
				return 0
			}
			return float64(numer) / scale / float64(devices)
		}
		wa := 0.0
		if r[mHostBytes] > 0 {
			wa = float64(r[mFlashBytes]) / float64(r[mHostBytes])
		}
		day := time.Duration(k+1) * m.Every
		cols := []string{
			f(day.Hours() / 24),
			strconv.FormatInt(devices, 10),
			strconv.FormatInt(r[mBricked], 10),
			f(float64(r[mHostBytes]) / (1 << 30)),
			f(wa),
			f(ratio(r[mWearAvgMicro], 1e6)),
			f(ratio(r[mWearMaxMicro], 1e6)),
			f(ratio(r[mRawBERFemto], 1e15)),
			f(ratio(r[mWearLevel], 1)),
			strconv.FormatInt(r[mBadBlocks], 10),
			strconv.FormatInt(r[mFlashErases], 10),
		}
		for i, c := range cols {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(c); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMetricsCSV renders the run's population time series, or fails if the
// Spec did not enable metrics (MetricsEvery == 0).
func (r *Result) WriteMetricsCSV(w io.Writer) error {
	if r.Metrics == nil {
		return errors.New("fleet: run had no metrics (set Spec.MetricsEvery)")
	}
	return r.Metrics.WriteCSV(w)
}

// metricCollector samples one device's registry on the scaled cadence and
// converts each snapshot into one full-scale integer row.
type metricCollector struct {
	reg *telemetry.Registry
	eff int64

	rows     [][]int64
	resolved bool
	src      struct {
		hostBytes, bricked, wearLevel     int
		mainBytes, mainErases, mainBad    int
		mainAvg, mainMax, mainBER         int
		cacheBytes, cacheErases, cacheBad int // -1 without a cache chip
	}
}

func newMetricCollector(reg *telemetry.Registry, eff int64) *metricCollector {
	return &metricCollector{reg: reg, eff: eff}
}

func (c *metricCollector) observe(s telemetry.Snapshot) {
	c.rows = append(c.rows, c.row(s))
}

// resolve caches snapshot point indices; registration order is fixed at
// device birth, so one resolution serves the whole run.
func (c *metricCollector) resolve(s telemetry.Snapshot) {
	must := func(name string) int {
		i := s.Index(name)
		if i < 0 {
			panic(fmt.Sprintf("fleet: instrument %q missing from device registry", name))
		}
		return i
	}
	c.src.hostBytes = must("device.bytes_written")
	// "Failed" covers both hard bricks and read-only EOL retirement, the
	// same definition the aggregate's Bricked counter uses.
	c.src.bricked = must("device.failed")
	c.src.wearLevel = must(telemetry.Name("device.wear_level", "pool", "b"))
	c.src.mainBytes = must(telemetry.Name("nand.bytes_programmed", "chip", "main"))
	c.src.mainErases = must(telemetry.Name("nand.erases", "chip", "main"))
	c.src.mainBad = must(telemetry.Name("nand.bad_blocks", "chip", "main"))
	c.src.mainAvg = must(telemetry.Name("nand.avg_wear", "chip", "main"))
	c.src.mainMax = must(telemetry.Name("nand.max_wear", "chip", "main"))
	c.src.mainBER = must(telemetry.Name("nand.raw_ber", "chip", "main"))
	c.src.cacheBytes = s.Index(telemetry.Name("nand.bytes_programmed", "chip", "cache"))
	c.src.cacheErases = s.Index(telemetry.Name("nand.erases", "chip", "cache"))
	c.src.cacheBad = s.Index(telemetry.Name("nand.bad_blocks", "chip", "cache"))
	c.resolved = true
}

func (c *metricCollector) row(s telemetry.Snapshot) []int64 {
	if !c.resolved {
		c.resolve(s)
	}
	pt := s.Points
	row := make([]int64, metricCols)
	row[mDevices] = 1
	if pt[c.src.bricked].Float != 0 {
		row[mBricked] = 1
	}
	row[mHostBytes] = pt[c.src.hostBytes].Int * c.eff
	flashBytes := pt[c.src.mainBytes].Int
	erases := pt[c.src.mainErases].Int
	bad := pt[c.src.mainBad].Int
	if c.src.cacheBytes >= 0 {
		flashBytes += pt[c.src.cacheBytes].Int
		erases += pt[c.src.cacheErases].Int
		bad += pt[c.src.cacheBad].Int
	}
	row[mFlashBytes] = flashBytes * c.eff
	row[mFlashErases] = erases * c.eff
	row[mBadBlocks] = bad * c.eff
	row[mWearAvgMicro] = FixedPoint(pt[c.src.mainAvg].Float, 1e6)
	row[mWearMaxMicro] = FixedPoint(pt[c.src.mainMax].Float, 1e6)
	row[mRawBERFemto] = FixedPoint(pt[c.src.mainBER].Float, 1e15)
	row[mWearLevel] = int64(pt[c.src.wearLevel].Float)
	return row
}

// FixedPoint converts a gauge to integer fixed point, mapping the
// non-finite values a fully-dead chip can report to zero. fleetd's day rows
// use it too, so both series round a gauge the same way.
func FixedPoint(v float64, scale float64) int64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return int64(math.Round(v * scale))
}

// finish pads (or truncates) the collected rows to exactly n: a device
// that bricked early freezes at its final snapshot for the remaining
// intervals; a survivor that overshot the horizon by part of a step is
// clipped back to it.
func (c *metricCollector) finish(n int, at time.Duration) [][]int64 {
	rows := c.rows
	if len(rows) > n {
		rows = rows[:n]
	}
	if len(rows) < n {
		final := c.row(c.reg.Snapshot(at))
		for len(rows) < n {
			rows = append(rows, final)
		}
	}
	return rows
}
