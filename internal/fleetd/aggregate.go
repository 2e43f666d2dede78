package fleetd

import (
	"fmt"
	"io"
	"strconv"

	"flashwear/internal/fleet"
	"flashwear/internal/report"
	"flashwear/internal/wtrace"
)

// wearLevels is the bucket count of the per-day wear-level sketch: JEDEC
// Type B levels 0..11.
const wearLevels = 12

// DaySeries is the campaign's streaming aggregate: one row of integer
// sums per completed simulated day (fleet's Col* layout, summed over
// Phone.DayRow), plus a per-day wear-level sketch.
// Row k is the population at the end of day k; devices that brick freeze
// at their final sample and keep contributing it (fleet's convention, so
// fleet.ColDevices stays constant down the series).
type DaySeries struct {
	// Rows has fleet.DayCols entries per row.
	Rows [][]int64 `json:"rows"`
	// Wear[k] distributes the population over wear levels at day k.
	Wear []report.Sketch `json:"wear"`
}

func newDaySeries(days int) *DaySeries {
	s := &DaySeries{Rows: make([][]int64, days), Wear: make([]report.Sketch, days)}
	for i := range s.Rows {
		s.Rows[i] = make([]int64, fleet.DayCols)
		s.Wear[i] = report.NewSketch(wearLevels)
	}
	return s
}

// merge adds o into s row-wise. Lengths must match.
func (s *DaySeries) merge(o *DaySeries) error {
	if len(o.Rows) != len(s.Rows) {
		return fmt.Errorf("fleetd: merging day series of %d vs %d rows", len(s.Rows), len(o.Rows))
	}
	for i, r := range o.Rows {
		for j, v := range r {
			s.Rows[i][j] += v
		}
		if err := s.Wear[i].MergeSketch(o.Wear[i]); err != nil {
			return fmt.Errorf("fleetd: day %d: %w", i, err)
		}
	}
	return nil
}

// append extends s with o's rows (the next epoch's days).
func (s *DaySeries) append(o *DaySeries) {
	s.Rows = append(s.Rows, o.Rows...)
	s.Wear = append(s.Wear, o.Wear...)
}

// clone returns a deep copy.
func (s *DaySeries) clone() *DaySeries {
	c := &DaySeries{Rows: make([][]int64, len(s.Rows)), Wear: make([]report.Sketch, len(s.Wear))}
	for i, r := range s.Rows {
		c.Rows[i] = append([]int64(nil), r...)
		c.Wear[i] = s.Wear[i].Clone()
	}
	return c
}

// WriteCSV renders the series through fleet.WriteDayRowsCSV with the
// read_only column, one row per completed simulated day:
//
//	day,devices,bricked,read_only,host_gib,write_amp,wear_avg,wear_max,
//	raw_ber,wear_level,bad_blocks,flash_erases
func (s *DaySeries) WriteCSV(w io.Writer) error {
	return fleet.WriteDayRowsCSV(w, s.Rows, func(k int) string { return strconv.Itoa(k + 1) }, true)
}

// Group aggregates terminal outcomes for a population slice — fleet's
// Group plus an explicit read-only retirement count. All integers, so
// merging is order-independent.
type Group struct {
	Devices  int64 `json:"devices"`
	Bricked  int64 `json:"bricked"`
	ReadOnly int64 `json:"read_only"`
	// HostMiB is full-scale host data written, in MiB.
	HostMiB int64 `json:"host_mib"`
	// BrickDayMilli sums time-to-brick in millidays over bricked devices.
	BrickDayMilli int64 `json:"brick_day_milli"`
}

func (g *Group) add(o fleet.DeviceResult) {
	g.Devices++
	g.HostMiB += o.HostBytes >> 20
	if o.Bricked {
		g.Bricked++
		g.BrickDayMilli += int64(o.Days * 1000)
	}
	if o.ReadOnly {
		g.ReadOnly++
	}
}

func (g *Group) merge(o Group) {
	g.Devices += o.Devices
	g.Bricked += o.Bricked
	g.ReadOnly += o.ReadOnly
	g.HostMiB += o.HostMiB
	g.BrickDayMilli += o.BrickDayMilli
}

// NamedGroup is one entry of a name-sorted group breakdown. fleetd keeps
// breakdowns as sorted slices rather than maps so that serialisation and
// JSON rendering are deterministic without per-render sorting.
type NamedGroup struct {
	Name string `json:"name"`
	Group
}

// Aggregate is the campaign's terminal statistics, mirroring fleet's
// Accumulator with sorted-slice breakdowns. Mid-run (before the final
// epoch) it covers only devices that already died; survivors join when
// their last day completes.
type Aggregate struct {
	Total     Group        `json:"total"`
	ByProfile []NamedGroup `json:"by_profile"`
	ByClass   []NamedGroup `json:"by_class"`
	// The histograms use fleet's geometries except TimeToBrick, which is
	// fixed at [0, 3650) days x 120 instead of [0, Days): a fork may extend
	// the horizon, and carries merge across forks only if every geometry is
	// horizon-independent.
	TimeToBrick  *report.Histogram `json:"time_to_brick"`
	DeathGiB     *report.Histogram `json:"death_gib"`
	SurvivorWear *report.Histogram `json:"survivor_wear"`
	WriteAmp     *report.Histogram `json:"write_amp"`
	// Ledger is the merged full-scale per-origin wear ledger of the
	// covered devices (zero-valued unless the campaign traces wear).
	Ledger wtrace.Snapshot `json:"ledger"`
}

func newAggregate() *Aggregate {
	return &Aggregate{
		TimeToBrick:  report.NewHistogram(0, 3650, 120),
		DeathGiB:     report.NewHistogram(0, 40960, 160),
		SurvivorWear: report.NewHistogram(0, 12, 12),
		WriteAmp:     report.NewHistogram(1, 4, 60),
	}
}

// groupFor finds or inserts the named group, keeping the slice sorted.
func groupFor(gs *[]NamedGroup, name string) *Group {
	lo, hi := 0, len(*gs)
	for lo < hi {
		mid := (lo + hi) / 2
		if (*gs)[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(*gs) && (*gs)[lo].Name == name {
		return &(*gs)[lo].Group
	}
	*gs = append(*gs, NamedGroup{})
	copy((*gs)[lo+1:], (*gs)[lo:])
	(*gs)[lo] = NamedGroup{Name: name}
	return &(*gs)[lo].Group
}

// add folds one terminal outcome in (with its scaled wear ledger, which
// is zero-valued when tracing is off).
func (a *Aggregate) add(o fleet.DeviceResult, wear wtrace.Snapshot) {
	a.Total.add(o)
	groupFor(&a.ByProfile, o.ProfileName).add(o)
	groupFor(&a.ByClass, o.Class.String()).add(o)
	if o.Bricked {
		a.TimeToBrick.Add(o.Days)
		a.DeathGiB.Add(float64(o.HostBytes) / (1 << 30))
	} else {
		a.SurvivorWear.Add(float64(o.WearLevel))
	}
	a.WriteAmp.Add(o.WA)
	a.Ledger.Merge(wear)
}

// merge adds o into a.
func (a *Aggregate) merge(o *Aggregate) error {
	a.Total.merge(o.Total)
	for _, g := range o.ByProfile {
		groupFor(&a.ByProfile, g.Name).merge(g.Group)
	}
	for _, g := range o.ByClass {
		groupFor(&a.ByClass, g.Name).merge(g.Group)
	}
	for _, pair := range []struct{ dst, src *report.Histogram }{
		{a.TimeToBrick, o.TimeToBrick},
		{a.DeathGiB, o.DeathGiB},
		{a.SurvivorWear, o.SurvivorWear},
		{a.WriteAmp, o.WriteAmp},
	} {
		if err := pair.dst.Merge(pair.src); err != nil {
			return fmt.Errorf("fleetd: merge: %w", err)
		}
	}
	a.Ledger.Merge(o.Ledger)
	return nil
}

// clone returns a deep copy.
func (a *Aggregate) clone() *Aggregate {
	c := &Aggregate{
		Total:     a.Total,
		ByProfile: append([]NamedGroup(nil), a.ByProfile...),
		ByClass:   append([]NamedGroup(nil), a.ByClass...),
	}
	cloneHist := func(h *report.Histogram) *report.Histogram {
		return &report.Histogram{Min: h.Min, Max: h.Max, Sketch: h.Sketch.Clone()}
	}
	c.TimeToBrick = cloneHist(a.TimeToBrick)
	c.DeathGiB = cloneHist(a.DeathGiB)
	c.SurvivorWear = cloneHist(a.SurvivorWear)
	c.WriteAmp = cloneHist(a.WriteAmp)
	c.Ledger.Merge(a.Ledger)
	return c
}
