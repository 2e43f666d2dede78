package report

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, v := range []float64{-1, 0, 0.5, 5, 9.999, 10, 42} {
		h.Add(v)
	}
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d, want 2", h.Over)
	}
	if h.Counts[0] != 2 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
	if got := h.Total(); got != 7 {
		t.Errorf("Total = %d, want 7", got)
	}
}

func TestHistogramTopEdgeRounding(t *testing.T) {
	// A value just below Max must not index past the last bucket even when
	// float division rounds up.
	h := NewHistogram(0, 0.3, 3)
	h.Add(math.Nextafter(0.3, 0))
	if h.Counts[2] != 1 || h.Over != 0 {
		t.Errorf("Counts = %v Over = %d, want last bucket hit", h.Counts, h.Over)
	}
}

func TestHistogramMergeGeometry(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 5)
	if err := a.Merge(b); err == nil {
		t.Fatal("Merge accepted mismatched geometry")
	}
}

func TestHistogramMergeOrderIndependent(t *testing.T) {
	vals := []float64{1, 2, 3, 4.5, 7, 9, 9, 11, -3}
	whole := NewHistogram(0, 10, 20)
	for _, v := range vals {
		whole.Add(v)
	}
	// Split the observations across three shards merged in a different
	// order; the merged state must be identical to the sequential one.
	shards := []*Histogram{NewHistogram(0, 10, 20), NewHistogram(0, 10, 20), NewHistogram(0, 10, 20)}
	for i, v := range vals {
		shards[i%3].Add(v)
	}
	merged := NewHistogram(0, 10, 20)
	for _, i := range []int{2, 0, 1} {
		if err := merged.Merge(shards[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Errorf("merged = %+v, want %+v", merged, whole)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for v := 0; v < 100; v++ {
		h.Add(float64(v) + 0.5)
	}
	for _, tc := range []struct{ p, want, tol float64 }{
		{0.5, 50, 1.0},
		{0.9, 90, 1.0},
		{0.0, 0, 1.0},
		{1.0, 100, 1.0},
	} {
		if got := h.Percentile(tc.p); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Percentile(%g) = %g, want %g±%g", tc.p, got, tc.want, tc.tol)
		}
	}
}

func TestHistogramPercentileEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("Percentile(%g) on empty = %g, want 0", p, got)
		}
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	// Merging empty shards — a fleet worker that drew no devices — must
	// be a no-op in both directions and keep percentiles well-defined.
	empty, other := NewHistogram(0, 10, 10), NewHistogram(0, 10, 10)
	other.Add(3)
	other.Add(7)
	want := *other
	wantCounts := append([]int64(nil), other.Counts...)
	if err := other.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if other.Under != want.Under || other.Over != want.Over || !reflect.DeepEqual(other.Counts, wantCounts) {
		t.Errorf("merge of empty changed counts: %+v", other)
	}
	if err := empty.Merge(NewHistogram(0, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if got := empty.Total(); got != 0 {
		t.Errorf("empty+empty Total = %d, want 0", got)
	}
	if got := empty.Percentile(0.5); got != 0 {
		t.Errorf("empty+empty Percentile(0.5) = %g, want 0", got)
	}
}

func TestHistogramCSV(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Add(-1)
	h.Add(1.5)
	h.AddN(2.5, 3)
	h.Add(9)
	var sb strings.Builder
	h.RenderCSV(&sb, "days")
	want := "days_lo,days_hi,count\n-inf,0,1\n1,2,1\n2,3,3\n4,+inf,1\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestPercentilesHelper(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for v := 0; v < 10; v++ {
		h.AddN(float64(v)+0.5, 1)
	}
	got := Percentiles(h, 0.1, 0.5, 0.9)
	if len(got) != 3 || got[0] >= got[1] || got[1] >= got[2] {
		t.Errorf("Percentiles not monotone: %v", got)
	}
}
