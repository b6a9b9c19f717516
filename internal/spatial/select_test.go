package spatial

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/xrand"
)

func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range []Backend{BackendAuto, BackendGrid, BackendKDTree} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	if _, err := ParseBackend("quadtree"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend name")
	}
	if b, err := ParseBackend(""); err != nil || b != BackendAuto {
		t.Fatalf("ParseBackend(\"\") = %v, %v; want auto", b, err)
	}
}

func TestChooseBackendClusteredVsUniform(t *testing.T) {
	// The heuristic exists to separate exactly these two regimes: a uniform
	// placement at the grid's design density stays on the grid, an islands
	// placement (where the budgeted cells go quadratic) moves to the tree.
	rng := xrand.New(21)
	reg := geom.MustRegion(16384, 2)
	uniform := reg.UniformPoints(rng, 2048)
	clustered := clusteredPoints(rng, reg, 8, 256, 0.05*16384)
	r := 16384.0 / 64
	if got := ChooseBackend(uniform, 2, r); got != BackendGrid {
		t.Fatalf("uniform placement chose %v, want grid", got)
	}
	if got := ChooseBackend(clustered, 2, r); got != BackendKDTree {
		t.Fatalf("clustered placement chose %v, want kdtree", got)
	}
}

// mstStartRadius is the radius GeoMST resolves the backend at: the mean
// nearest-neighbour scale extent / n^(1/dims).
func mstStartRadius(pts []geom.Point) float64 {
	extent, dims := BoundingExtent(pts)
	return extent / math.Pow(float64(len(pts)), 1/float64(dims))
}

func TestChooseBackendRelativeToUniform(t *testing.T) {
	// Uniform placements at the paper's density (n/128 nodes per 16384^d)
	// stay on the grid in 2-D and 3-D alike. In 3-D the budget-doubled grid
	// holds ~8 uniform points per cell, which an absolute crowding
	// threshold of 8 mistook for clustering; the relative test must not.
	for _, dim := range []int{2, 3} {
		for _, n := range []int{256, 384, 1024, 4096} {
			side := 16384 * math.Pow(float64(n)/128, 1/float64(dim))
			reg := geom.MustRegion(side, dim)
			for seed := uint64(1); seed <= 20; seed++ {
				pts := reg.UniformPoints(xrand.New(seed), n)
				if got := ChooseBackend(pts, dim, mstStartRadius(pts)); got != BackendGrid {
					c, u, _ := CellCrowding(pts, mstStartRadius(pts))
					t.Errorf("uniform %d-D n=%d seed %d chose %v (crowding %.2f, uniform level %.2f)",
						dim, n, seed, got, c, u)
				}
			}
		}
	}
	// Island placements pick the tree: the benchmark's clustered-islands,
	// the clustered-sensorfield scenario, BenchmarkSnapshotClustered's, and
	// wider or more numerous islands.
	for _, is := range []struct {
		l      float64
		n, k   int
		radius float64
	}{
		{16384, 4096, 8, 600},
		{2048, 256, 8, 120},
		{65536, 2048, 8, 0.05 * 65536},
		{16384, 4096, 8, 1200},
		{16384, 4096, 64, 300},
	} {
		reg := geom.MustRegion(is.l, 2)
		place := mobility.Clusters{Clusters: is.k, Radius: is.radius}
		for seed := uint64(1); seed <= 20; seed++ {
			pts := make([]geom.Point, is.n)
			place.Fill(xrand.New(seed), reg, pts)
			if got := ChooseBackend(pts, 2, mstStartRadius(pts)); got != BackendKDTree {
				name := fmt.Sprintf("%d islands of radius %v, n=%d, l=%v", is.k, is.radius, is.n, is.l)
				t.Errorf("%s seed %d chose %v, want kdtree", name, seed, got)
			}
		}
	}
}

func TestChooseBackendDeterministic(t *testing.T) {
	// The scheduler's ordered-reduction contract needs the pick to be a pure
	// function of the snapshot: same points and radius, same backend, on
	// every call and from any number of concurrent callers (the snapshot
	// pool calls it from GOMAXPROCS evaluator goroutines).
	rng := xrand.New(22)
	reg := geom.MustRegion(4096, 2)
	snapshots := [][]geom.Point{
		reg.UniformPoints(rng, 500),
		clusteredPoints(rng, reg, 4, 200, 30),
		clusteredPoints(rng, reg, 16, 16, 5),
	}
	for si, pts := range snapshots {
		want := ChooseBackend(pts, 2, 100)
		for i := 0; i < 50; i++ {
			if got := ChooseBackend(pts, 2, 100); got != want {
				t.Fatalf("snapshot %d: call %d chose %v, earlier calls chose %v", si, i, got, want)
			}
		}
		for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
			var wg sync.WaitGroup
			picks := make([]Backend, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					picks[w] = ChooseBackend(pts, 2, 100)
				}(w)
			}
			wg.Wait()
			for w, got := range picks {
				if got != want {
					t.Fatalf("snapshot %d: worker %d/%d chose %v, want %v", si, w, workers, got, want)
				}
			}
		}
	}
}

func TestChooseBackendDegenerateInputs(t *testing.T) {
	// Degenerate snapshots must resolve (to the grid, which handles them
	// all) without panicking: empty, singleton, all-coincident, zero extent
	// at scale, and non-positive radius.
	coincident := make([]geom.Point, 512)
	for i := range coincident {
		coincident[i] = geom.Point{X: 42, Y: 42}
	}
	cases := []struct {
		name string
		pts  []geom.Point
		r    float64
	}{
		{"empty", nil, 10},
		{"singleton", []geom.Point{{X: 1}}, 10},
		{"pair", []geom.Point{{X: 1}, {X: 2}}, 10},
		{"coincident", coincident, 10},
		{"zero_radius", coincident, 0},
		{"negative_radius", coincident, -5},
	}
	for _, tc := range cases {
		if got := ChooseBackend(tc.pts, 2, tc.r); got != BackendGrid {
			t.Fatalf("%s: chose %v, want grid fallback", tc.name, got)
		}
	}
	if _, _, ok := CellCrowding(coincident, 10); ok {
		t.Fatal("CellCrowding reported ok on a single-cell (zero extent) grid")
	}
	if _, _, ok := CellCrowding(nil, 10); ok {
		t.Fatal("CellCrowding reported ok on an empty point set")
	}
}

func TestCellCrowdingTracksOccupancy(t *testing.T) {
	// Sanity on the estimator itself: a dense island scores far above a
	// spread placement of the same n, and sampling (n >> crowdingSamples)
	// does not erase the separation.
	rng := xrand.New(23)
	reg := geom.MustRegion(16384, 2)
	n := 4096 // forces stride sampling: n > crowdingSamples
	uniform := reg.UniformPoints(rng, n)
	clustered := clusteredPoints(rng, reg, 8, n/8, 400)
	r := 16384.0 / 64
	cu, _, ok := CellCrowding(uniform, r)
	if !ok {
		t.Fatal("uniform crowding not ok")
	}
	cc, _, ok := CellCrowding(clustered, r)
	if !ok {
		t.Fatal("clustered crowding not ok")
	}
	if cc < 4*cu {
		t.Fatalf("clustered crowding %.1f not well above uniform %.1f", cc, cu)
	}
}

func TestChooseBackendZeroAllocs(t *testing.T) {
	// The pick runs once per snapshot on the hot path; it must not allocate.
	rng := xrand.New(24)
	pts := geom.MustRegion(4096, 2).UniformPoints(rng, 2048)
	allocs := testing.AllocsPerRun(10, func() {
		ChooseBackend(pts, 2, 100)
	})
	if allocs != 0 {
		t.Fatalf("ChooseBackend allocates %v/op, want 0", allocs)
	}
}
