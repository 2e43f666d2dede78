package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Column layout of one day row — what Phone.DayRow returns and what both
// engines' series sum: fleet.Run's MetricsSeries and fleetd's DaySeries,
// whose checkpoint cell footers store rows in this order. Every column is
// an integer sum over devices — full-scale (capacity scaling multiplied
// back) and, for the wear/error gauges, fixed-point — so that merging
// per-worker, per-shard or per-epoch series is exactly associative and
// commutative, like the rest of the aggregates. Derived floating-point
// columns (write amplification, population means) are computed only at
// render time, from identical integer sums, so the CSV is byte-identical
// across worker counts.
const (
	// ColDevices counts contributing devices (constant down a series:
	// bricked devices freeze at their final row, they do not drop out).
	ColDevices = iota
	// ColBricked counts devices dead at this instant.
	ColBricked
	// ColReadOnly counts devices retired read-only (a subset of dead).
	ColReadOnly
	// ColHostBytes is full-scale host data absorbed.
	ColHostBytes
	// ColFlashBytes is full-scale data physically programmed into NAND
	// (main + cache chips); ColFlashBytes/ColHostBytes is the population WA.
	ColFlashBytes
	// ColFlashErases is full-scale block erases (main + cache).
	ColFlashErases
	// ColBadBlocks is full-scale blocks retired (main + cache).
	ColBadBlocks
	// ColWearAvgMicro sums per-device average wear in micro-units (x1e6);
	// divide by ColDevices for the population mean.
	ColWearAvgMicro
	// ColWearMaxMicro sums per-device maximum wear in micro-units; divide by
	// ColDevices for the mean per-device hottest block.
	ColWearMaxMicro
	// ColRawBERFemto sums per-device expected raw bit error rate in
	// femto-units (x1e15).
	ColRawBERFemto
	// ColWearLevel sums per-device JEDEC Type B wear-indicator levels.
	ColWearLevel

	// DayCols is the row width.
	DayCols
)

// MetricsSeries is the population wear trajectory: row k holds the
// integer-additive sums of every device's state at age (k+1)*Every.
type MetricsSeries struct {
	// Every is the full-scale sampling cadence.
	Every time.Duration
	// Rows is the series; each row has DayCols entries.
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
		m.Rows[i] = make([]int64, DayCols)
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

// WriteDayRowsCSV renders day rows with the derived population columns,
// one CSV line per row, labelled by day(k):
//
//	day, devices, bricked, [read_only,] host_gib, write_amp, wear_avg,
//	wear_max, raw_ber, wear_level, bad_blocks, flash_erases
//
// wear_avg/wear_max/raw_ber/wear_level are means over the population
// (wear_max is the mean of per-device hottest-block wear — a true
// population max would not merge additively). All floats derive from the
// rows' integer sums, so output is byte-identical across worker counts.
// readOnly selects fleetd's layout, which has the read_only column.
func WriteDayRowsCSV(w io.Writer, rows [][]int64, day func(k int) string, readOnly bool) error {
	bw := bufio.NewWriter(w)
	ro := ""
	if readOnly {
		ro = "read_only,"
	}
	bw.WriteString("day,devices,bricked," + ro + "host_gib,write_amp,wear_avg,wear_max,raw_ber,wear_level,bad_blocks,flash_erases\n")
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	n := func(v int64) string { return strconv.FormatInt(v, 10) }
	for k, r := range rows {
		devices := r[ColDevices]
		mean := func(sum int64, scale float64) string {
			if devices == 0 {
				return "0"
			}
			return f(float64(sum) / scale / float64(devices))
		}
		wa := 0.0
		if r[ColHostBytes] > 0 {
			wa = float64(r[ColFlashBytes]) / float64(r[ColHostBytes])
		}
		cols := []string{day(k), n(devices), n(r[ColBricked])}
		if readOnly {
			cols = append(cols, n(r[ColReadOnly]))
		}
		cols = append(cols,
			f(float64(r[ColHostBytes])/(1<<30)),
			f(wa),
			mean(r[ColWearAvgMicro], 1e6),
			mean(r[ColWearMaxMicro], 1e6),
			mean(r[ColRawBERFemto], 1e15),
			mean(r[ColWearLevel], 1),
			n(r[ColBadBlocks]),
			n(r[ColFlashErases]))
		bw.WriteString(strings.Join(cols, ","))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteCSV renders the series in WriteDayRowsCSV's layout without the
// read_only column; the day label is the row's full-scale age in days.
func (m *MetricsSeries) WriteCSV(w io.Writer) error {
	return WriteDayRowsCSV(w, m.Rows, func(k int) string {
		age := time.Duration(k+1) * m.Every
		return strconv.FormatFloat(age.Hours()/24, 'g', -1, 64)
	}, false)
}

// WriteMetricsCSV renders the run's population time series, or fails if the
// Spec did not enable metrics (MetricsEvery == 0).
func (r *Result) WriteMetricsCSV(w io.Writer) error {
	if r.Metrics == nil {
		return errors.New("fleet: run had no metrics (set Spec.MetricsEvery)")
	}
	return r.Metrics.WriteCSV(w)
}

// FixedPoint converts a gauge to integer fixed point, mapping the
// non-finite values a fully-dead chip can report to zero.
func FixedPoint(v float64, scale float64) int64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return int64(math.Round(v * scale))
}
