// Package metrics is the unified observability registry shared by every
// layer of the reproduction: a dependency-free set of counters, gauges, and
// histograms with atomic hot paths, safe under both the cooperatively
// scheduled simulation kernel and real-goroutine concurrency over TCP.
//
// Call sites resolve their instruments once at construction time (a mutex
// and a map lookup) and then record with plain atomics — no per-observation
// locking, no allocation.  A Registry renders itself two ways:
//
//   - Prometheus text exposition format (expose.go, served by
//     cmd/dpnfs-serve's /metrics endpoint), and
//   - a structured Snapshot embedded in bench JSON reports
//     (dpnfs-bench -report=out.json), so figure runs produce
//     machine-readable perf trajectories.
//
// Every cluster owns one Registry (cluster.Config.Metrics); passing nil
// anywhere yields instruments bound to a discard registry, so library code
// records unconditionally.  The metric inventory and its mapping onto the
// paper's figures is documented in docs/METRICS.md.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is an instrument type.
type Kind int

// Instrument kinds, rendered as Prometheus TYPE lines.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DurationBuckets are the default latency histogram bounds in seconds,
// matching the RPC round-trip spread the paper's testbed exhibits (100 µs
// kernel NFS ops to hundreds of ms under load).
var DurationBuckets = []float64{
	100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 300e-3, 1, 3,
}

// SizeBuckets are the default transfer-size histogram bounds in bytes:
// the paper's small (8 KB) and large (2 MB) block sizes fall on bucket
// edges so Figures 6d/6e vs 6a/6b populate distinct buckets.
var SizeBuckets = []float64{
	4 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20, 8 << 20,
}

// Registry holds metric families keyed by name.  All methods are safe for
// concurrent use; a nil *Registry is valid and discards everything.
//
// A Registry may be a labeled view of another (WithLabel): views share one
// family table — rendering any of them renders everything — but every
// instrument resolved through a view carries the view's base labels.  The
// cluster layer uses this to stamp each cluster's instruments with its
// architecture, so a registry shared across a benchmark sweep stays
// attributable per architecture.
type Registry struct {
	core *registryCore
	// base labels prepended to every family schema and child resolved
	// through this view.
	baseNames  []string
	baseValues []string
}

// registryCore is the family table shared by a registry and its views.
type registryCore struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with a fixed label schema and typed children.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion-ordered keys for stable iteration
}

// series is one labeled child of a family.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{core: &registryCore{families: make(map[string]*family)}}
}

// WithLabel returns a view of the registry whose instruments all carry
// label=value in addition to their own labels.  The view shares the
// registry's family table; different views of one registry may resolve the
// same family with different base values (e.g. one series per
// architecture).
func (r *Registry) WithLabel(label, value string) *Registry {
	r = r.orDiscard()
	return &Registry{
		core:       r.core,
		baseNames:  concat(r.baseNames, []string{label}),
		baseValues: concat(r.baseValues, []string{value}),
	}
}

// discard absorbs instruments created against a nil registry.  It is never
// rendered, so its accumulation is invisible; the families are bounded by
// the program's metric-name inventory.
var discard = NewRegistry()

func (r *Registry) orDiscard() *Registry {
	if r == nil {
		return discard
	}
	return r
}

// lookup returns the family for name, creating it on first use.  The
// family's schema is the view's base labels followed by the requested
// labels.  Re-registering an existing name with a different kind or label
// schema panics: metric schemas are wired once at startup and a mismatch
// is a programming error.  Finding an existing family allocates nothing.
func (r *Registry) lookup(name, help string, kind Kind, labels []string, bounds []float64) *family {
	r = r.orDiscard()
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.families[name]; ok {
		n := len(r.baseNames)
		if f.kind != kind || len(f.labels) != n+len(labels) ||
			!slices.Equal(f.labels[:n], r.baseNames) || !slices.Equal(f.labels[n:], labels) {
			panic(fmt.Sprintf("metrics: %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: concat(r.baseNames, labels),
		bounds: bounds,
		series: make(map[string]*series),
	}
	c.families[name] = f
	return f
}

// concat returns a new slice holding a followed by b.
func concat(a, b []string) []string {
	return append(append(make([]string, 0, len(a)+len(b)), a...), b...)
}

// child returns the series for the label values base followed by values,
// creating it on first use.  The series key, each value followed by a NUL,
// is built in a stack buffer and looked up without converting it to a
// string, so finding an existing series allocates nothing.
func (f *family) child(base, values []string) *series {
	if len(base)+len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(base)+len(values)))
	}
	var buf [128]byte
	key := buf[:0]
	for _, v := range base {
		key = append(append(key, v...), 0)
	}
	for _, v := range values {
		key = append(append(key, v...), 0)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[string(key)]; ok {
		return s
	}
	s := &series{values: concat(base, values)}
	switch f.kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	case KindHistogram:
		s.h = newHistogram(f.bounds)
	}
	k := string(key)
	f.series[k] = s
	f.order = append(f.order, k)
	return s
}

// Counter is a monotonically increasing count.  The zero value is ready.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters never decrease).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value (occupancy, sizes, config).
// The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets with an exact sum,
// count, and max.  Observe is lock-free: per-bucket atomic adds plus CAS
// loops for the float sum and max.
type Histogram struct {
	bounds  []float64 // upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
	max     atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.  Observations must be non-negative (they are
// latencies, byte counts, and occupancies throughout this repository).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Max returns the largest observation (0 before the first Observe).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Mean returns the average observation (0 before the first Observe).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns an upper bound for the q-th quantile (q in [0,1]) from
// the bucket counts; observations past the last bound report the largest
// observation seen.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := uint64(float64(n) * q)
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.Max()
		}
	}
	return h.Max()
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct {
	f    *family
	base []string
}

// CounterVec registers (or finds) a counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, KindCounter, labels, nil), r.orDiscard().baseValues}
}

// With returns the child counter for the label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(v.base, values).c
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct {
	f    *family
	base []string
}

// GaugeVec registers (or finds) a gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, KindGauge, labels, nil), r.orDiscard().baseValues}
}

// With returns the child gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(v.base, values).g
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// HistogramVec is a histogram family partitioned by labels.  Every child
// shares the family's bucket bounds.
type HistogramVec struct {
	f    *family
	base []string
}

// HistogramVec registers (or finds) a histogram family with the given
// bucket upper bounds (nil means DurationBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, KindHistogram, labels, bounds), r.orDiscard().baseValues}
}

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(v.base, values).h
}

// Histogram registers (or finds) an unlabeled histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// sortedFamilies snapshots the family list in name order.  Views share
// their parent's table, so rendering any view renders everything.
func (r *Registry) sortedFamilies() []*family {
	c := r.orDiscard().core
	c.mu.Lock()
	fams := make([]*family, 0, len(c.families))
	for _, f := range c.families {
		fams = append(fams, f)
	}
	c.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// snapshotSeries returns the family's children in insertion order.
func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, 0, len(f.order))
	for _, key := range f.order {
		out = append(out, f.series[key])
	}
	return out
}
