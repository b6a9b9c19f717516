package spatial

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

// pairSet collects visited pairs into a canonical sorted form for comparison.
func pairSet(collect func(PairVisitor)) []string {
	var out []string
	collect(func(i, j int, d2 float64) {
		out = append(out, fmt.Sprintf("%d-%d", i, j))
	})
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := xrand.New(1)
	for _, dim := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 5, 40, 200} {
			for _, r := range []float64{0.5, 2, 10, 50} {
				reg := geom.MustRegion(100, dim)
				pts := reg.UniformPoints(rng, n)
				got := pairSet(func(v PairVisitor) { PairsWithin(pts, dim, r, v) })
				want := pairSet(func(v PairVisitor) { BruteForcePairsWithin(pts, r, v) })
				if !equalStrings(got, want) {
					t.Fatalf("dim=%d n=%d r=%v: grid %d pairs, brute %d pairs",
						dim, n, r, len(got), len(want))
				}
			}
		}
	}
}

func TestGridMatchesBruteForceClusteredPoints(t *testing.T) {
	// Clustered placements stress the per-cell member lists.
	rng := xrand.New(2)
	reg := geom.MustRegion(1000, 2)
	var pts []geom.Point
	for c := 0; c < 5; c++ {
		center := reg.UniformPoint(rng)
		for i := 0; i < 30; i++ {
			pts = append(pts, reg.Clamp(reg.UniformInBall(rng, center, 3)))
		}
	}
	for _, r := range []float64{0.5, 3, 8} {
		got := pairSet(func(v PairVisitor) { PairsWithin(pts, 2, r, v) })
		want := pairSet(func(v PairVisitor) { BruteForcePairsWithin(pts, r, v) })
		if !equalStrings(got, want) {
			t.Fatalf("r=%v: grid %d pairs, brute %d pairs", r, len(got), len(want))
		}
	}
}

func TestPairsOrderedAndUnique(t *testing.T) {
	rng := xrand.New(3)
	reg := geom.MustRegion(50, 2)
	pts := reg.UniformPoints(rng, 100)
	seen := map[[2]int]bool{}
	PairsWithin(pts, 2, 10, func(i, j int, d2 float64) {
		if i >= j {
			t.Fatalf("pair (%d,%d) not ordered", i, j)
		}
		k := [2]int{i, j}
		if seen[k] {
			t.Fatalf("pair (%d,%d) visited twice", i, j)
		}
		seen[k] = true
		want := geom.Dist2(pts[i], pts[j])
		if math.Abs(d2-want) > 1e-9 {
			t.Fatalf("pair (%d,%d): d2 = %v, want %v", i, j, d2, want)
		}
	})
}

func TestRadiusLargerThanCellFallsBack(t *testing.T) {
	rng := xrand.New(4)
	reg := geom.MustRegion(20, 2)
	pts := reg.UniformPoints(rng, 60)
	ix := NewIndex(pts, 2, 1.0) // cell smaller than query radius
	got := pairSet(func(v PairVisitor) { ix.ForEachPairWithin(5, v) })
	want := pairSet(func(v PairVisitor) { BruteForcePairsWithin(pts, 5, v) })
	if !equalStrings(got, want) {
		t.Fatalf("fallback path wrong: %d vs %d pairs", len(got), len(want))
	}
}

func TestZeroRadius(t *testing.T) {
	pts := []geom.Point{{X: 1}, {X: 1}, {X: 2}}
	got := pairSet(func(v PairVisitor) { PairsWithin(pts, 1, 0, v) })
	if !equalStrings(got, []string{"0-1"}) {
		t.Fatalf("zero radius pairs = %v, want only coincident pair 0-1", got)
	}
}

func TestNegativeRadiusYieldsNothing(t *testing.T) {
	pts := []geom.Point{{X: 1}, {X: 1}}
	n := 0
	PairsWithin(pts, 1, -1, func(int, int, float64) { n++ })
	if n != 0 {
		t.Fatalf("negative radius visited %d pairs", n)
	}
	BruteForcePairsWithin(pts, -1, func(int, int, float64) { n++ })
	if n != 0 {
		t.Fatalf("brute force negative radius visited %d pairs", n)
	}
}

func TestBoundaryDistanceInclusive(t *testing.T) {
	// Edge condition: distance exactly r must produce an edge (<= in paper).
	pts := []geom.Point{{X: 0}, {X: 5}}
	n := 0
	PairsWithin(pts, 1, 5, func(int, int, float64) { n++ })
	if n != 1 {
		t.Fatalf("distance == r should be a neighbor pair, got %d pairs", n)
	}
}

func TestHalfStencilSizes(t *testing.T) {
	// Forward half of the 3^d-1 neighborhood: 1, 4, 13 for d = 1, 2, 3.
	want := map[int]int{1: 1, 2: 4, 3: 13}
	for dim, n := range want {
		if got := len(halfStencil(dim)); got != n {
			t.Errorf("halfStencil(%d) has %d offsets, want %d", dim, got, n)
		}
	}
}

func TestCountPairsWithin(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 1}, {X: 2}, {X: 10}}
	n := 0
	PairsWithin(pts, 1, 1.5, func(int, int, float64) { n++ })
	if n != 2 {
		t.Fatalf("PairsWithin visited %d pairs, want 2", n)
	}
}

func BenchmarkGridPairs128(b *testing.B)  { benchPairs(b, 128, false) }
func BenchmarkBrutePairs128(b *testing.B) { benchPairs(b, 128, true) }
func BenchmarkGridPairs1k(b *testing.B)   { benchPairs(b, 1000, false) }
func BenchmarkBrutePairs1k(b *testing.B)  { benchPairs(b, 1000, true) }

func benchPairs(b *testing.B, n int, brute bool) {
	rng := xrand.New(1)
	reg := geom.MustRegion(16384, 2)
	pts := reg.UniformPoints(rng, n)
	r := 16384 / math.Sqrt(float64(n)) // near the connectivity threshold
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count = 0
		if brute {
			BruteForcePairsWithin(pts, r, func(int, int, float64) { count++ })
		} else {
			PairsWithin(pts, 2, r, func(int, int, float64) { count++ })
		}
	}
	_ = count
}
