// Package telemetry is the simulator's observability layer: a registry of
// named counters, gauges and log2-bucketed histograms with cheap atomic
// updates; a structured event journal (bounded ring buffer plus optional
// JSONL sink) for PD recomputations, protected-line evictions, bypass
// decisions and sampler FIFO evictions; periodic interval snapshots of hit
// rate, current PD, per-core occupancy and set-access skew; and profiling
// hooks (pprof, expvar) for long runs.
//
// The whole package is nil-tolerant: every method is safe on a nil
// receiver and does nothing, so instrumented code needs no "is telemetry
// on?" branches — a disabled pipeline is a handful of predictable
// nil-checks per event, and the cache substrate itself pays nothing at all
// when no monitor is attached (cache.Cache only calls an attached
// Monitor). It depends on the standard library only.
package telemetry

import (
	"expvar"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float64 metric (hit rate, occupancy, current PD).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is bits.Len64(max uint64) + 1: bucket k counts observed
// values whose bit length is k, i.e. v in [2^(k-1), 2^k).
const histBuckets = 65

// Histogram accumulates a distribution in log2 buckets: bucket k counts
// values v with bits.Len64(v) == k (bucket 0 is exactly v == 0). The
// geometry matches the reuse-distance scale of the paper's analyses, where
// only the order of magnitude of a lifetime or distance matters. The count
// is the sum of the buckets, so every read that sums one bucket read
// agrees with itself under concurrent writers.
type Histogram struct {
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveN records v n times in two atomic adds — the amortized form
// batch paths use to book one per-op value for every operation of a
// batch without paying n separate observations.
func (h *Histogram) ObserveN(v uint64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.sum.Add(v * n)
	h.buckets[bits.Len64(v)].Add(n)
}

// read loads every bucket once and returns them with their total (zero on
// a nil histogram).
func (h *Histogram) read() (b [histBuckets]uint64, total uint64) {
	if h == nil {
		return b, 0
	}
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	return b, total
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	_, n := h.read()
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 { return h.snapshot().Mean }

// histSnapshot is one histogram's entry in a Snapshot. Count, the
// quantiles and the log2 buckets come from one read of the buckets, so
// Count is always their sum; Sum is read just after them. Log2[k] counts
// values in [2^(k-1), 2^k), index 0 counts zeros, and trailing zeros are
// trimmed.
type histSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	QuantileSummary
	Log2 []uint64 `json:"log2_buckets"`
}

func (h *Histogram) snapshot() histSnapshot {
	b, n := h.read()
	s := histSnapshot{Count: n, Sum: h.Sum(), QuantileSummary: summarize(&b, n)}
	if n > 0 {
		s.Mean = float64(s.Sum) / float64(n)
	}
	last := -1
	for k, c := range b {
		if c != 0 {
			last = k
		}
	}
	s.Log2 = append([]uint64(nil), b[:last+1]...)
	return s
}

// Registry is a namespace of metrics. Lookups take a mutex; the returned
// metric handles update lock-free, so instrumented code resolves its
// handles once and hits only atomics afterwards. A nil *Registry returns
// nil handles, whose operations are no-ops — the disabled-mode fast path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	views    []func(Samples)
}

// Samples receives the series of one read-time view evaluation, keyed by
// name: a uint64 for a counter, a float64 for a gauge.
type Samples map[string]any

// Counter reports a counter series' current value.
func (s Samples) Counter(name string, v uint64) { s[name] = v }

// Gauge reports a gauge series' current value.
func (s Samples) Gauge(name string, v float64) { s[name] = v }

// View registers a read-time metric source: collect runs once per
// Snapshot — so once per /stats, /metrics or expvar read — and reports
// every series it owns, so a subsystem that already keeps its counts under
// its own locks publishes them without a second, push-side copy. collect
// runs outside the registry lock and may take the subsystem's locks. A
// view's series shadows a stored metric of the same name on every read,
// whichever was registered first.
func (r *Registry) View(collect func(Samples)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.views = append(r.views, collect)
	r.mu.Unlock()
}

// readViews evaluates every registered view.
func (r *Registry) readViews() Samples {
	r.mu.Lock()
	views := r.views[:len(r.views):len(r.views)]
	r.mu.Unlock()
	s := Samples{}
	for _, collect := range views {
		collect(s)
	}
	return s
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a point-in-time copy of every metric, keyed by name:
// a counter (stored or view-reported) maps to its uint64 value, a gauge to
// its float64 value, and a histogram to {count, sum, mean, p50, p90, p99,
// p999, log2_buckets}. It is the only reader of the registry's metrics:
// /stats, /metrics (WriteProm) and expvar are encodings of it.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	views := r.readViews()
	r.mu.Lock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists)+len(views))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.snapshot()
	}
	r.mu.Unlock()
	for name, v := range views {
		out[name] = v
	}
	return out
}

// PublishExpvar exposes the registry under the given expvar name (shown at
// /debug/vars when an HTTP server runs, e.g. via ServeDebug). Publishing
// the same name twice is a no-op rather than the expvar panic.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || name == "" {
		return
	}
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
