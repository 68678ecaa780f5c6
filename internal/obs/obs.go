// Package obs is the runtime observability layer of the broadcast stack:
// atomic counters and gauges, lock-free ring-buffer histograms for the
// paper's latency and tuning distributions, a bounded in-memory trace log
// of per-query Probe→Answer traces, and an HTTP handler exposing all of it
// as /metrics, /healthz and /trace. Everything is stdlib-only and built so
// the serving hot path stays zero-allocation: recording a counter or a
// histogram sample is one atomic operation, never a lock, never an
// allocation (see DESIGN §11 for the contract and the benchmark that
// guards it).
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe for concurrent use and allocate
// nothing.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be non-negative for the value to stay monotone).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// MetricValue implements Var.
func (c *Counter) MetricValue() any { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. active connections). The
// zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MetricValue implements Var.
func (g *Gauge) MetricValue() any { return g.v.Load() }

// Histogram records the most recent observations of a distribution in a
// fixed-size ring buffer. Observe is lock-free and allocation-free: one
// atomic fetch-add claims a slot, one atomic store writes the sample, so
// any number of goroutines can record concurrently from a hot path.
// Snapshot sorts a copy of the ring to report quantiles; under concurrent
// writes a snapshot may mix samples from adjacent time windows, which is
// the usual (and acceptable) imprecision of a ring-buffer histogram —
// every reported sample is a real observation.
type Histogram struct {
	ring []atomic.Int64
	mask uint64
	next atomic.Uint64 // total observations ever; slot = (next-1) & mask
}

// NewHistogram builds a histogram remembering the last size observations
// (rounded up to a power of two, minimum 16).
func NewHistogram(size int) *Histogram {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Histogram{ring: make([]atomic.Int64, n), mask: uint64(n - 1)}
}

// Observe records one sample. Safe for concurrent use; never allocates.
func (h *Histogram) Observe(v int64) {
	i := h.next.Add(1) - 1
	h.ring[i&h.mask].Store(v)
}

// HistogramSnapshot summarizes the ring's current contents.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`  // observations ever recorded
	Window int     `json:"window"` // samples summarized (ring occupancy)
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	Mean   float64 `json:"mean"`
	P50    int64   `json:"p50"`
	P90    int64   `json:"p90"`
	P99    int64   `json:"p99"`
}

// Snapshot summarizes the observations currently in the ring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	total := h.next.Load()
	k := uint64(len(h.ring))
	if total < k {
		k = total
	}
	s := HistogramSnapshot{Count: int64(total), Window: int(k)}
	if k == 0 {
		return s
	}
	vals := make([]int64, k)
	for i := range vals {
		vals[i] = h.ring[i].Load()
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	q := func(p float64) int64 { return vals[int(p*float64(len(vals)-1)+0.5)] }
	s.Min, s.Max = vals[0], vals[len(vals)-1]
	s.Mean = sum / float64(len(vals))
	s.P50, s.P90, s.P99 = q(0.50), q(0.90), q(0.99)
	return s
}

// MetricValue implements Var.
func (h *Histogram) MetricValue() any { return h.Snapshot() }

// AwaitAtLeast polls load until it returns at least target, or until
// timeout elapses, reporting whether the target was reached. The poll
// interval backs off from 100µs to 5ms, so tests can synchronize on
// metric counters ("obs-driven readiness") instead of fixed sleeps.
func AwaitAtLeast(load func() int64, target int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	interval := 100 * time.Microsecond
	for {
		if load() >= target {
			return true
		}
		if time.Now().After(deadline) {
			return load() >= target
		}
		time.Sleep(interval)
		if interval < 5*time.Millisecond {
			interval *= 2
		}
	}
}
