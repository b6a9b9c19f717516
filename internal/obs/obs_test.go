package obs

import (
	"math"
	"testing"
)

func TestNilHandlesAreNops(t *testing.T) {
	// The disabled-registry contract: every handle method must be safe on a
	// nil receiver, because call sites never branch on enablement.
	var c *Counter
	c.Inc()
	c.Add(7)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil Counter.Value() = %d, want 0", got)
	}
	var g *Gauge
	g.Set(5)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil Gauge.Value() = %d, want 0", got)
	}
	var h *Histogram
	h.Observe(123)
	if got := h.Count(); got != 0 {
		t.Fatalf("nil Histogram.Count() = %d, want 0", got)
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("nil Histogram.Sum() = %d, want 0", got)
	}
}

func TestDisabledRegistryHandsOutNilHandles(t *testing.T) {
	r := NewDisabled()
	if r.Enabled() {
		t.Fatal("NewDisabled().Enabled() = true")
	}
	if c := r.Counter("adhocnet_test_total"); c != nil {
		t.Fatalf("disabled registry Counter = %v, want nil", c)
	}
	if g := r.Gauge("adhocnet_test"); g != nil {
		t.Fatalf("disabled registry Gauge = %v, want nil", g)
	}
	if h := r.Histogram("adhocnet_test_ns"); h != nil {
		t.Fatalf("disabled registry Histogram = %v, want nil", h)
	}
	var nilReg *Registry
	if nilReg.Enabled() {
		t.Fatal("nil Registry Enabled() = true")
	}
	if c := nilReg.Counter("adhocnet_test_total"); c != nil {
		t.Fatalf("nil registry Counter = %v, want nil", c)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	if !r.Enabled() {
		t.Fatal("NewRegistry().Enabled() = false")
	}
	c1 := r.Counter("adhocnet_test_total")
	c2 := r.Counter("adhocnet_test_total")
	if c1 == nil || c1 != c2 {
		t.Fatalf("Counter handle not stable: %p vs %p", c1, c2)
	}
	c1.Add(3)
	c2.Inc()
	if got := c1.Value(); got != 4 {
		t.Fatalf("counter value = %d, want 4", got)
	}
	g := r.Gauge("adhocnet_test")
	g.Set(10)
	if got := r.Gauge("adhocnet_test").Value(); got != 10 {
		t.Fatalf("gauge value = %d, want 10", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("adhocnet_test_ns")
	// Negative observations clamp to zero (bucket 0); zero lands in bucket 0.
	h.Observe(-5)
	h.Observe(0)
	h.Observe(1) // bucket 1 (<= 1)
	h.Observe(2) // bucket 2 (<= 3)
	h.Observe(3) // bucket 2
	h.Observe(1024)
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 0+0+1+2+3+1024 {
		t.Fatalf("sum = %d, want 1030", got)
	}
	snap := h.snapshot()
	want := []HistogramBucket{
		{UpperBound: 0, Count: 2},
		{UpperBound: 1, Count: 1},
		{UpperBound: 3, Count: 2},
		{UpperBound: 2047, Count: 1},
	}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
	for i, b := range snap.Buckets {
		if b != want[i] {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestBucketUpperBound(t *testing.T) {
	cases := []struct {
		k    int
		want uint64
	}{
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 3},
		{10, 1023},
		{63, 1<<63 - 1},
		{64, math.MaxUint64},
		{70, math.MaxUint64},
	}
	for _, tc := range cases {
		if got := BucketUpperBound(tc.k); got != tc.want {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
	// Every observable value must fall in a bucket whose bound covers it.
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1 << 40, math.MaxInt64} {
		var h Histogram
		h.Observe(v)
		snap := h.snapshot()
		if len(snap.Buckets) != 1 {
			t.Fatalf("Observe(%d): %d buckets", v, len(snap.Buckets))
		}
		if ub := snap.Buckets[0].UpperBound; ub < uint64(v) {
			t.Errorf("Observe(%d) landed in bucket le=%d", v, ub)
		}
	}
}
