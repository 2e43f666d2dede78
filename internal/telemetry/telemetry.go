// Package telemetry is the measurement substrate for the whole stack: a
// dependency-free, pull-only metrics registry of named, labeled counters
// and gauges, plus a Sampler (sampler.go) that snapshots the registry on
// a fixed simclock cadence into an in-memory time series rendered as CSV
// or JSON.
//
// Design rules, in the spirit of Flashmon's in-kernel counters:
//
//   - Instruments (CounterFunc, GaugeFunc) read existing layer state at
//     snapshot time, where the layer already keeps it, so hot paths pay
//     nothing between samples. Name resolution happens once, at
//     registration.
//   - Instrument callbacks MUST be pure observers: reading a metric must
//     never mutate simulation state (no RNG draws, no cache refreshes),
//     or sampled runs would diverge from unsampled ones. See DESIGN.md §7.
//
// Instruments are named "layer.metric" in lowercase with optional
// canonical labels, e.g. "nand.programs{chip=main}". Snapshot order is
// registration order, so any series built from one registry has a stable
// column layout.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind distinguishes monotonic counts from point-in-time levels.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing integer count.
	KindCounter Kind = iota + 1
	// KindGauge is an instantaneous floating-point level.
	KindGauge
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// instrument is one registered metric source.
// Exactly one of counterFn and gaugeFn is set.
type instrument struct {
	name      string
	counterFn func() int64
	gaugeFn   func() float64
}

// Registry holds named instruments. Registration is not on any hot path
// and panics on invalid or duplicate names (programming errors).
// Registration and Snapshot take the registry lock.
type Registry struct {
	mu    sync.Mutex
	insts []instrument
	index map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Name builds a canonical instrument name: base plus sorted key=value
// labels, e.g. Name("nand.programs", "chip", "main") ==
// "nand.programs{chip=main}". It panics on an odd label count.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: Name(%q): odd label count %d", base, len(labels)))
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+labels[i+1])
	}
	sort.Strings(pairs)
	return base + "{" + strings.Join(pairs, ",") + "}"
}

// validName accepts "layer.metric" spellings — lowercase letters, digits,
// dots and underscores — with an optional trailing {k=v,...} label block.
func validName(name string) bool {
	base, labeled := name, false
	var labels string
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return false
		}
		base, labels, labeled = name[:i], name[i+1:len(name)-1], true
	}
	if base == "" {
		return false
	}
	for _, r := range base {
		if !(r == '.' || r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
			return false
		}
	}
	if !labeled {
		return true
	}
	if labels == "" {
		return false
	}
	for _, kv := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return false
		}
	}
	return true
}

func (r *Registry) register(inst instrument) {
	if !validName(inst.name) {
		panic(fmt.Sprintf("telemetry: invalid instrument name %q", inst.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.index[inst.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate instrument %q", inst.name))
	}
	r.index[inst.name] = len(r.insts)
	r.insts = append(r.insts, inst)
}

// CounterFunc registers a pull counter: fn is called at snapshot time and
// must be a pure observer of simulation state.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.register(instrument{name: name, counterFn: fn})
}

// GaugeFunc registers a pull gauge: fn is called at snapshot time and
// must be a pure observer of simulation state.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.register(instrument{name: name, gaugeFn: fn})
}

// Point is one sampled value. Counters carry Int, gauges carry Float.
type Point struct {
	Name  string
	Kind  Kind
	Int   int64
	Float float64
}

// Value returns the point as a float64 regardless of kind.
func (p Point) Value() float64 {
	if p.Kind == KindCounter {
		return float64(p.Int)
	}
	return p.Float
}

// Snapshot is the registry's state at one instant of simulated time.
// Points appear in registration order.
type Snapshot struct {
	At     time.Duration
	Points []Point
}

// Index returns the position of name in Points, or -1.
func (s Snapshot) Index(name string) int {
	for i, p := range s.Points {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// Snapshot reads every instrument. Pull callbacks run under the registry
// lock; they must not re-enter the registry.
func (r *Registry) Snapshot(at time.Duration) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	pts := make([]Point, len(r.insts))
	for i, in := range r.insts {
		if in.counterFn != nil {
			pts[i] = Point{Name: in.name, Kind: KindCounter, Int: in.counterFn()}
		} else {
			pts[i] = Point{Name: in.name, Kind: KindGauge, Float: in.gaugeFn()}
		}
	}
	return Snapshot{At: at, Points: pts}
}
