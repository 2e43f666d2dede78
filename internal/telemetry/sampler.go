package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"flashwear/internal/simclock"
)

// Sampler snapshots a registry on a fixed simulated-time cadence. It
// rides the same discrete-event clock as the device it observes, so a
// sampled run advances through exactly the same event sequence as an
// unsampled one — sampling is pure observation (DESIGN.md §7).
//
// Like the clock itself, a Sampler is not safe for concurrent use.
type Sampler struct {
	reg    *Registry
	clock  *simclock.Clock
	cancel func()

	series  Series
	lastAt  time.Duration
	sampled bool
}

// NewSampler schedules a snapshot of reg every `every` of simulated time
// on clock. It panics on a non-positive cadence.
func NewSampler(reg *Registry, clock *simclock.Clock, every time.Duration) *Sampler {
	if every <= 0 {
		panic(fmt.Sprintf("telemetry: NewSampler: cadence %v, want > 0", every))
	}
	s := &Sampler{reg: reg, clock: clock}
	s.cancel = clock.Every(every, s.sample)
	return s
}

func (s *Sampler) sample() {
	snap := s.reg.Snapshot(s.clock.Now())
	s.lastAt, s.sampled = snap.At, true
	s.series.add(snap)
}

// Stop cancels future scheduled samples.
func (s *Sampler) Stop() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

// Final takes one last snapshot at the current clock time, unless a
// scheduled sample already fired at this exact instant. Call it after a
// run ends so the series always reflects the end state (a device that
// bricks between samples would otherwise vanish mid-trajectory).
func (s *Sampler) Final() {
	if s.sampled && s.lastAt == s.clock.Now() {
		return
	}
	s.sample()
}

// Series returns the accumulated time series.
func (s *Sampler) Series() *Series { return &s.series }

// Row is one sampled instant: every instrument's value at time At.
type Row struct {
	At     time.Duration
	Values []float64
}

// Series is an in-memory metrics time series with a fixed column layout
// (established by the first snapshot added).
type Series struct {
	Columns []string
	Kinds   []Kind
	Rows    []Row
}

func (s *Series) add(snap Snapshot) {
	if s.Columns == nil {
		s.Columns = make([]string, len(snap.Points))
		s.Kinds = make([]Kind, len(snap.Points))
		for i, p := range snap.Points {
			s.Columns[i] = p.Name
			s.Kinds[i] = p.Kind
		}
	}
	if len(snap.Points) != len(s.Columns) {
		panic(fmt.Sprintf("telemetry: snapshot has %d points, series has %d columns (register all instruments before sampling starts)",
			len(snap.Points), len(s.Columns)))
	}
	vals := make([]float64, len(snap.Points))
	for i, p := range snap.Points {
		vals[i] = p.Value()
	}
	s.Rows = append(s.Rows, Row{At: snap.At, Values: vals})
}

// FormatCell renders one value the way WriteCSV does: counters as exact
// integers, gauges in shortest round-trip form.
func FormatCell(k Kind, v float64) string {
	if k == KindCounter {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV renders the series with a "sim_hours" time column followed by
// one column per instrument, in registration order.
func (s *Series) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("sim_hours")
	for _, c := range s.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, row := range s.Rows {
		b.WriteString(strconv.FormatFloat(row.At.Hours(), 'g', -1, 64))
		for i, v := range row.Values {
			b.WriteByte(',')
			b.WriteString(FormatCell(s.Kinds[i], v))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the series as a single object:
//
//	{"columns": [...], "kinds": [...], "rows": [{"sim_hours": h, "values": [...]}]}
//
// Non-finite gauge values become null (JSON has no NaN/Inf).
func (s *Series) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\"columns\":[")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(c))
	}
	b.WriteString("],\"kinds\":[")
	for i, k := range s.Kinds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(k.String()))
	}
	b.WriteString("],\"rows\":[")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("{\"sim_hours\":")
		b.WriteString(jsonNumber(row.At.Hours()))
		b.WriteString(",\"values\":[")
		for j, v := range row.Values {
			if j > 0 {
				b.WriteByte(',')
			}
			if s.Kinds[j] == KindCounter {
				b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
			} else {
				b.WriteString(jsonNumber(v))
			}
		}
		b.WriteString("]}")
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func jsonNumber(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
