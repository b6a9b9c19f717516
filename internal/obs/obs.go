// Package obs is the simulator's instrumentation layer: atomic counters,
// gauges and fixed-bucket power-of-two histograms behind a Registry, plus the
// module's single sanctioned wall-clock (Clock, clock.go), an HTTP ops
// endpoint (server.go), a machine-readable end-of-run summary (report.go) and
// periodic progress lines (progress.go).
//
// The hard design constraint is that instrumentation must never perturb
// results or hot paths:
//
//   - Metric updates are plain atomics, excluded from workload identity: no
//     metric value ever feeds back into the simulation, so a run is
//     bit-identical with observability on, off, or absent (pinned by the
//     determinism matrix test in internal/core).
//   - Every metric handle (*Counter, *Gauge, *Histogram) is nil-safe: methods
//     on a nil handle return immediately. A disabled Registry (NewDisabled)
//     hands out nil handles, so a fully instrumented call path compiles down
//     to nil-check branches — benchmarked within noise of no instrumentation
//     at all (TestObsOverheadDisabledRegistry, BENCH_obs.json).
//   - All wall-clock reads live behind obs.Clock, and instrumentation code
//     gates its clock reads on the handles being live, so a disabled or
//     absent registry performs zero time syscalls.
//
// Metric naming follows the Prometheus convention: adhocnet_<subsystem>_
// <what>_<unit>[_total], with literal labels allowed inside the name (e.g.
// `adhocnet_run_phase_ns_total{phase="fixed"}`). The full catalog lives in
// DESIGN.md "Observability".
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil *Counter is a no-op (the disabled-registry contract).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a settable int64. The zero value is ready to use; a nil *Gauge
// is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a power-of-two histogram: bucket k
// holds the observations v with bits.Len64(v) == k, i.e. bucket 0 holds v=0
// and bucket k>=1 holds v in [2^(k-1), 2^k-1]. 65 buckets cover the full
// uint64 range, so Observe never branches on bucket overflow.
const histBuckets = 65

// A Histogram counts observations into fixed power-of-two buckets, keeping
// the exact sum and count alongside. Negative observations clamp to 0.
// The zero value is ready to use; a nil *Histogram is a no-op. Observe is
// alloc-free and lock-free (one atomic add per field).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketUpperBound returns the inclusive upper bound of bucket k: 0 for
// bucket 0, 2^k-1 for k >= 1 (MaxUint64 for the last bucket).
func BucketUpperBound(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}

// A Registry names and owns metrics. Handles are created lazily on first
// request and shared by name afterwards, so independent subsystems
// instrumenting the same run converge on one set of values. A nil *Registry
// and a disabled Registry both hand out nil handles; the difference is that a
// disabled Registry still exists to be threaded through config (the
// overhead-benchmark state), while nil means "no observability requested".
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	disabled   bool
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// NewDisabled returns a registry that hands out nil handles: every metric
// update through it is a nil-check no-op. This is the state the overhead
// benchmark measures against a truly absent (nil) registry.
func NewDisabled() *Registry {
	r := NewRegistry()
	r.disabled = true
	return r
}

// Enabled reports whether the registry collects anything. A nil registry is
// not enabled. Instrumentation uses this to gate wall-clock reads: timing
// metrics must cost zero syscalls when nobody is looking.
func (r *Registry) Enabled() bool { return r != nil && !r.disabled }

// Counter returns the named counter, creating it if needed. Returns nil on a
// nil or disabled registry.
func (r *Registry) Counter(name string) *Counter {
	if !r.Enabled() {
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

// Gauge returns the named gauge, creating it if needed. Returns nil on a nil
// or disabled registry.
func (r *Registry) Gauge(name string) *Gauge {
	if !r.Enabled() {
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

// Histogram returns the named histogram, creating it if needed. Returns nil
// on a nil or disabled registry.
func (r *Registry) Histogram(name string) *Histogram {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}
