package report

import (
	"fmt"
	"io"
)

// Histogram counts observations in fixed-width buckets over [Min, Max).
// Values below Min land in Under, values at or above Max in Over, so no
// observation is ever dropped. All state is integral, which makes Merge
// exactly associative and commutative: merging per-worker histograms yields
// byte-identical results regardless of how a fleet run was partitioned —
// the property the fleet determinism tests assert.
// The bucket counts live in an embedded Sketch (see sketch.go), so the
// merge core is shared with fleetd's streaming aggregates; Counts, Under,
// and Over remain accessible as promoted fields.
type Histogram struct {
	Min, Max float64
	Sketch
}

// NewHistogram creates a histogram with the given bucket count over
// [min, max). It panics on a non-positive bucket count or an empty range,
// which are programming errors.
func NewHistogram(min, max float64, buckets int) *Histogram {
	if buckets <= 0 {
		panic(fmt.Sprintf("report: NewHistogram: buckets = %d", buckets))
	}
	if !(max > min) {
		panic(fmt.Sprintf("report: NewHistogram: empty range [%g, %g)", min, max))
	}
	return &Histogram{Min: min, Max: max, Sketch: NewSketch(buckets)}
}

// BucketWidth returns the width of one bucket.
func (h *Histogram) BucketWidth() float64 {
	return (h.Max - h.Min) / float64(len(h.Counts))
}

// Add records one observation.
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN records n observations of the same value.
func (h *Histogram) AddN(v float64, n int64) {
	switch {
	case v < h.Min:
		h.Under += n
	case v >= h.Max:
		h.Over += n
	default:
		i := int((v - h.Min) / h.BucketWidth())
		if i >= len(h.Counts) { // float round-up at the top edge
			i = len(h.Counts) - 1
		}
		h.Counts[i] += n
	}
}

// Merge adds o's counts into h. The two histograms must share a geometry.
func (h *Histogram) Merge(o *Histogram) error {
	if o.Min != h.Min || o.Max != h.Max || len(o.Counts) != len(h.Counts) {
		return fmt.Errorf("report: Merge: geometry mismatch [%g,%g)x%d vs [%g,%g)x%d",
			h.Min, h.Max, len(h.Counts), o.Min, o.Max, len(o.Counts))
	}
	return h.MergeSketch(o.Sketch)
}

// Percentile returns the value below which fraction p (in [0, 1]) of the
// observations fall, linearly interpolated within its bucket. Underflow
// reports Min and overflow reports Max (the histogram does not retain exact
// out-of-range values). An empty histogram returns 0: percentiles feed
// summary tables and telemetry columns, where a NaN would poison CSV diffs
// and JSON encoding without carrying any more information.
func (h *Histogram) Percentile(p float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(total)
	cum := float64(h.Under)
	if target <= cum && h.Under > 0 {
		return h.Min
	}
	w := h.BucketWidth()
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if target <= cum+float64(c) {
			lo := h.Min + float64(i)*w
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.Max
}

// Percentiles evaluates several percentiles at once, in the given order.
func Percentiles(h *Histogram, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// RenderCSV writes the histogram as "bucket_lo,bucket_hi,count" rows under
// a header, skipping empty buckets outside the occupied range. Under- and
// overflow are emitted as rows with -inf/+inf edges when present.
func (h *Histogram) RenderCSV(w io.Writer, label string) {
	fmt.Fprintf(w, "%s_lo,%s_hi,count\n", label, label)
	if h.Under > 0 {
		fmt.Fprintf(w, "-inf,%g,%d\n", h.Min, h.Under)
	}
	first, last := -1, -1
	for i, c := range h.Counts {
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	bw := h.BucketWidth()
	for i := first; i >= 0 && i <= last; i++ {
		lo := h.Min + float64(i)*bw
		fmt.Fprintf(w, "%g,%g,%d\n", lo, lo+bw, h.Counts[i])
	}
	if h.Over > 0 {
		fmt.Fprintf(w, "%g,+inf,%d\n", h.Max, h.Over)
	}
}
