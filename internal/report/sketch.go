package report

import "fmt"

// Sketch is the bounded-bucket integer core shared by Histogram and the
// fleetd streaming aggregates: a fixed number of integer buckets plus
// explicit under/overflow counts, so no observation is ever dropped and
// the memory footprint is independent of how many observations were
// folded in. All state is integral, which makes Merge exactly associative
// and commutative — per-worker and per-shard sketches combine to
// byte-identical results regardless of partitioning, the same argument
// the fleet determinism tests pin for Histogram.
//
// Sketch does not interpret bucket indices; callers that need a value
// axis wrap it (Histogram maps [Min, Max) onto the buckets). fleetd uses
// bare sketches for already-discrete distributions such as JEDEC wear
// levels, where bucket i simply is level i.
type Sketch struct {
	Counts []int64
	Under  int64
	Over   int64
}

// NewSketch returns a sketch with the given bucket count. It panics on a
// non-positive count, which is a programming error.
func NewSketch(buckets int) Sketch {
	if buckets <= 0 {
		panic(fmt.Sprintf("report: NewSketch: buckets = %d", buckets))
	}
	return Sketch{Counts: make([]int64, buckets)}
}

// AddBucket records n observations in bucket i; a negative i lands in
// Under, i past the last bucket in Over.
func (s *Sketch) AddBucket(i int, n int64) {
	switch {
	case i < 0:
		s.Under += n
	case i >= len(s.Counts):
		s.Over += n
	default:
		s.Counts[i] += n
	}
}

// Total returns the number of recorded observations, including under- and
// overflow.
func (s *Sketch) Total() int64 {
	t := s.Under + s.Over
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// MergeSketch adds o's counts into s. The bucket counts must match.
func (s *Sketch) MergeSketch(o Sketch) error {
	if len(o.Counts) != len(s.Counts) {
		return fmt.Errorf("report: MergeSketch: %d buckets vs %d", len(s.Counts), len(o.Counts))
	}
	s.Under += o.Under
	s.Over += o.Over
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	return nil
}

// Clone returns a deep copy.
func (s *Sketch) Clone() Sketch {
	return Sketch{Counts: append([]int64(nil), s.Counts...), Under: s.Under, Over: s.Over}
}
