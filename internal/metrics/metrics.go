// Package metrics provides the lightweight counters, gauges and histograms
// that the experiment harness uses to report the quantities the paper talks
// about: delivery latency percentiles, per-node message loads, redundancy
// fractions, and served-request ratios — and, since the observability PR,
// the live-node exposition layer: labeled series and a Prometheus
// text-format handler (expo.go) that cmd/newswired serves as /metrics.
package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored; counters are monotone).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// SyncTo raises the counter to total if it is currently below it, and
// otherwise leaves it unchanged. It mirrors an externally maintained
// cumulative total (for example astrolabe.Stats) into the registry
// without double counting, while keeping the counter monotone.
func (c *Counter) SyncTo(total int64) {
	c.mu.Lock()
	if total > c.n {
		c.n = total
	}
	c.mu.Unlock()
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates observations and reports order statistics.
//
// By default it keeps every sample: experiment runs are bounded, so exact
// quantiles are cheap and avoid approximation arguments in
// EXPERIMENTS.md. A long-running live node must not keep every delivery
// latency forever, though — SetReservoir caps the retained samples with
// uniform reservoir sampling (Vitter's algorithm R). Count, Sum, Mean,
// Min and Max stay exact in either mode; quantiles become estimates over
// the reservoir once it overflows.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool

	count int64
	sum   float64
	min   float64
	max   float64

	cap int        // 0 = unbounded (exact mode)
	rng *rand.Rand // reservoir replacement; lazily created, fixed seed
}

// SetReservoir bounds the retained sample buffer to cap samples (<= 0
// restores the unbounded exact mode). Samples already held beyond the cap
// are trimmed oldest-first.
func (h *Histogram) SetReservoir(cap int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cap <= 0 {
		h.cap = 0
		return
	}
	h.cap = cap
	if len(h.samples) > cap {
		h.samples = h.samples[len(h.samples)-cap:]
		h.sorted = false
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.cap > 0 && len(h.samples) >= h.cap {
		// Reservoir replacement keeps each of the count samples retained
		// with equal probability cap/count. The RNG seed is fixed: the
		// histogram's statistical behaviour must not depend on ambient
		// state, so a seeded simulation's histograms repeat exactly.
		if h.rng == nil {
			h.rng = rand.New(rand.NewSource(1))
		}
		if j := h.rng.Int63n(h.count); j < int64(h.cap) {
			h.samples[j] = v
			h.sorted = false
		}
	} else {
		h.samples = append(h.samples, v)
		h.sorted = false
	}
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations (exact even with a reservoir).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Sum returns the sum of all observations (exact even with a reservoir).
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the observation mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using nearest-rank on the
// sorted retained samples, or 0 for an empty histogram. Exact in the
// default mode; a reservoir estimate after a capped histogram overflows.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	rank := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.samples[rank]
}

// Max returns the largest observation, or 0 for an empty histogram.
// Exact even when a reservoir has discarded the sample itself.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest observation, or 0 for an empty histogram.
// Exact even when a reservoir has discarded the sample itself.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Reset discards all state.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sorted = false
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.mu.Unlock()
}

// Registry is a named collection of metrics. The zero value is unusable;
// construct with NewRegistry.
//
// Series may carry labels (CounterWith and friends); the plain accessors
// are the empty-label special case. The registry lock only guards the
// series maps — per-metric work (quantile sorts in particular) happens
// under the individual metric's lock, so an exposition render in flight
// never stalls a concurrent Counter() lookup on a hot path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	meta       map[string]seriesMeta // series key -> family/labels
}

// seriesMeta locates a series inside its family for exposition.
type seriesMeta struct {
	family string
	labels string // pre-rendered `k1="v1",k2="v2"`, "" when unlabeled
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		meta:       make(map[string]seriesMeta),
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return r.CounterWith(name)
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return r.GaugeWith(name)
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name)
}

// RegisterHistogram adopts an externally owned histogram under name, so a
// component that already maintains one (for example a node's delivery
// latency reservoir) can surface it through the registry without copying
// samples. Re-registering the same instance is a no-op; a different
// instance replaces the previous one.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	key, meta := seriesKey(name, nil)
	r.mu.Lock()
	r.histograms[key] = h
	r.meta[key] = meta
	r.mu.Unlock()
}
