package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a process's ops-domain metrics and renders them in the
// Prometheus text exposition format. Metric values are wall-clock-domain
// by construction (request latencies, fsync costs, throughput rates), so
// the registry's output is explicitly excluded from every determinism
// comparison; sim-domain series belong in internal/telemetry instead.
type Registry struct {
	mu      sync.Mutex
	metrics []metric // insertion order; sorted by name at render
	names   map[string]bool
}

// metric is one named family that can render itself.
type metric interface {
	metricName() string
	write(w *bufio.Writer)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.metricName()] {
		panic("obs: duplicate metric " + m.metricName())
	}
	r.names[m.metricName()] = true
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every family, sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].metricName() < ms[j].metricName() })
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		m.write(bw)
	}
	return bw.Flush()
}

// ServeHTTP makes the registry a GET /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// header emits the # HELP / # TYPE preamble.
func header(w *bufio.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {k="v",...} from parallel name/value slices.
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing integer.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Counter registers and returns a counter family with no labels.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one; a nil counter counts nothing.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (which must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(w *bufio.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// Gauge is a float that can go up and down.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Gauge registers and returns a gauge family with no labels.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) write(w *bufio.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

// GaugeFunc is a gauge whose value is produced by a callback at render
// time — for cheap point-in-time reads of process state (heap bytes,
// goroutine counts) that would be wasteful to push on a timer.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// GaugeFunc registers a callback-backed gauge family. fn is called on
// every render (and by Value); it must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) metricName() string { return g.name }

func (g *GaugeFunc) write(w *bufio.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: each bucket counts observations <= its bound, plus +Inf).
type Histogram struct {
	name, help string
	labelStr   string // rendered label pairs, "" when unlabelled

	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	count  uint64
}

// DurationBuckets is a general-purpose latency bucket ladder in seconds,
// 100µs to ~100s.
var DurationBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

func newHistogram(name, help, labelStr string, bounds []float64) *Histogram {
	return &Histogram{
		name: name, help: help, labelStr: labelStr,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Histogram registers and returns an unlabelled histogram with the given
// upper bounds (ascending).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, "", bounds)
	r.register(h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Time starts a wall-clock stopwatch; the returned func observes the
// elapsed seconds. Handing out the closure (rather than a timestamp)
// lets sim-domain callers measure ops costs without ever holding a
// wall-clock value themselves.
func (h *Histogram) Time() func() {
	start := WallNow()
	return func() { h.Observe(WallNow().Sub(start).Seconds()) }
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values (the _sum row).
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) write(w *bufio.Writer) {
	header(w, h.name, h.help, "histogram")
	h.writeRows(w)
}

// writeRows renders the _bucket/_sum/_count rows without the preamble
// (shared with HistogramVec, which emits one preamble per family).
func (h *Histogram) writeRows(w *bufio.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	inner := strings.TrimSuffix(strings.TrimPrefix(h.labelStr, "{"), "}")
	le := func(bound string) string {
		if inner == "" {
			return `{le="` + bound + `"}`
		}
		return "{" + inner + `,le="` + bound + `"}`
	}
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, le(formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, le("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, h.labelStr, formatFloat(h.sum))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.labelStr, cum)
}

// CounterVec is a counter family with a fixed label set.
type CounterVec struct {
	name, help string
	labels     []string

	mu   sync.Mutex
	kids map[string]*Counter
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, labels: labels, kids: map[string]*Counter{}}
	r.register(v)
	return v
}

// With returns the child counter for the given label values (one per
// label name, in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic("obs: " + v.name + ": wrong label value count")
	}
	key := labelPairs(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[key]
	if !ok {
		c = &Counter{name: v.name + key}
		v.kids[key] = c
	}
	return c
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) write(w *bufio.Writer) {
	header(w, v.name, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%s %d\n", v.name, k, v.kids[k].v.Load())
	}
	v.mu.Unlock()
}

// HistogramVec is a histogram family with a fixed label set.
type HistogramVec struct {
	name, help string
	labels     []string
	bounds     []float64

	mu   sync.Mutex
	kids map[string]*Histogram
}

// HistogramVec registers and returns a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{name: name, help: help, labels: labels, bounds: bounds, kids: map[string]*Histogram{}}
	r.register(v)
	return v
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic("obs: " + v.name + ": wrong label value count")
	}
	key := labelPairs(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[key]
	if !ok {
		h = newHistogram(v.name, "", key, v.bounds)
		v.kids[key] = h
	}
	return h
}

func (v *HistogramVec) metricName() string { return v.name }

func (v *HistogramVec) write(w *bufio.Writer) {
	header(w, v.name, v.help, "histogram")
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*Histogram, len(keys))
	for i, k := range keys {
		kids[i] = v.kids[k]
	}
	v.mu.Unlock()
	for _, h := range kids {
		h.writeRows(w)
	}
}

// RateMeter turns event counts into a throughput gauge: each Add sets the
// gauge to n divided by the wall time since the previous Add — a cheap
// devices-per-second style meter that needs no scrape-side rate().
type RateMeter struct {
	g *Gauge

	mu   sync.Mutex
	last time.Time
}

// RateMeter registers a gauge family driven by Add.
func (r *Registry) RateMeter(name, help string) *RateMeter {
	return &RateMeter{g: r.Gauge(name, help), last: WallNow()}
}

// Add records that n units of work completed since the previous Add and
// updates the gauge to the interval rate.
func (m *RateMeter) Add(n int64) {
	now := WallNow()
	m.mu.Lock()
	defer m.mu.Unlock()
	dt := now.Sub(m.last).Seconds()
	m.last = now
	if dt > 0 {
		m.g.Set(float64(n) / dt)
	}
}
