// Package metrics is the machine-readable side of the observability
// layer: lock-free counters, gauges and HDR-style log-linear
// histograms behind a named Registry, plus the RunReport every
// simulation command can emit (report.go). Where internal/trace
// answers "when did each rank do what", this package answers "how
// much, in total" -- and the two agree by construction because both
// are fed from the same diag.Counters and msg traffic records.
//
// The flop accounting behind the rate metrics is the paper's
// (internal/diag): a gravitational interaction is charged
// diag.FlopsPerInteraction = 38 flops (Karp reciprocal square root
// built from adds and multiplies), a quadrupole term adds
// diag.FlopsPerQuadrupole = 70, a regularized Biot-Savart vortex
// interaction costs diag.FlopsPerVortexInteract = 168, and an SPH
// pair diag.FlopsPerSPHPair = 55. Every "flops" or "flops_rate"
// metric in a RunReport is counted interactions pushed through those
// constants, exactly as the paper derives 430 Gflops from interaction
// counts and wall-clock time. What the production kernels execute
// for an interaction is less (diag.ExecutedFlops); only the roofline
// section uses that.
//
// All update paths are atomic, so the ranks of a world (and the jobs
// of a service) may hammer one metric concurrently; all read paths are
// snapshots.
// Every type tolerates a nil receiver on its update methods, so a
// disabled registry costs one branch per update site.
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter. Nil-safe no-op.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Nil-safe (0).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value. Nil-safe no-op.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value. Nil-safe (0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histSub is the linear sub-buckets per octave: a sample is filed by
// its bit length and the three mantissa bits after the leading one.
// Values below 2*histSub get a bucket each.
const (
	histSub     = 8
	histBuckets = 62 * histSub // a 64-bit sample lands in (64-3)*histSub + 7
)

// histIndex is the bucket of v; histUpper the largest value of bucket i.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	l := bits.Len64(v)
	return (l-3)*histSub + int(v>>(l-4))&(histSub-1)
}

func histUpper(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	// The top bucket's 16<<60 wraps to 0, and 0-1 is its true upper edge.
	return uint64(histSub+i%histSub+1)<<(i/histSub-1) - 1
}

// Histogram is an HDR-style latency histogram: eight linear buckets
// per power of two, exact count/sum/max, atomic updates. A quantile is
// an upper bound within 12.5% of the sample it stands for, which is
// what a threshold on a p99 needs: at one bucket per octave a latency
// histogram could not tell 1 ms from 2 ms, and no gate can sit inside a
// factor of two.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Observe records one sample. Nil-safe no-op.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of samples. Nil-safe (0).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1):
// the top of the bucket containing it, clamped to the exact observed
// maximum. Nil-safe (0).
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return min(histUpper(i), h.max.Load())
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is the serializable summary of a Histogram.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
}

// Snapshot summarizes the histogram. Nil-safe (zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// Registry is a named collection of metrics. Lookup creates on first
// use; the returned pointers are stable, so hot paths resolve a
// metric once and update it lock-free thereafter.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if new. Nil-safe: a
// nil registry yields a nil Counter whose Add is a no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if new. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if new. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Values returns every counter and gauge as one flat sorted-key map.
// Nil-safe (nil).
func (r *Registry) Values() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Counters returns every counter's current value by name. Unlike
// Values it keeps the metric kind, which Prometheus exposition needs
// for its TYPE lines. Nil-safe (nil).
func (r *Registry) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Gauges returns every gauge's current value by name. Nil-safe (nil).
func (r *Registry) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Snapshots returns every histogram's summary. Nil-safe (nil).
func (r *Registry) Snapshots() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}
