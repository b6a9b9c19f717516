package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
	"adhocnet/internal/xrand"
)

// profilesIdentical checks that two profiles describe bit-identical merge
// radii and agree on every connectivity query. Intermediate largest-after
// entries inside a run of tied radii may legitimately differ between two
// valid MSTs, so sizes are compared through the query interface (which only
// ever observes tie-run boundaries) at, between and beyond every radius.
func profilesIdentical(t *testing.T, want, got *Profile) {
	t.Helper()
	if want.n != got.n {
		t.Fatalf("node count %d != %d", got.n, want.n)
	}
	wr, gr := want.mergeRadii, got.mergeRadii
	if len(wr) != len(gr) {
		t.Fatalf("merge count %d != %d", len(gr), len(wr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("merge radius %d: %v != %v (diff %g)", i, gr[i], wr[i], gr[i]-wr[i])
		}
	}
	probes := []float64{0, math.Inf(1)}
	for _, r := range wr {
		probes = append(probes, r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)), r/2, r*1.5)
	}
	for _, r := range probes {
		if want.ComponentsAt(r) != got.ComponentsAt(r) {
			t.Fatalf("ComponentsAt(%v): %d != %d", r, got.ComponentsAt(r), want.ComponentsAt(r))
		}
		if want.LargestAt(r) != got.LargestAt(r) {
			t.Fatalf("LargestAt(%v): %d != %d", r, got.LargestAt(r), want.LargestAt(r))
		}
	}
	if want.Critical() != got.Critical() {
		t.Fatalf("critical %v != %v", got.Critical(), want.Critical())
	}
}

// crossValidate asserts GeoMST against PrimMST on one placement, both via
// the package-level entry point and via a reused workspace.
func crossValidate(t *testing.T, pts []geom.Point, dim int, ws *Workspace) {
	t.Helper()
	dense := profileFromMST(len(pts), PrimMST(pts))
	sparse := profileFromMST(len(pts), GeoMST(pts, dim))
	profilesIdentical(t, dense, sparse)
	viaWS := profileFromMST(len(pts), ws.GeoMST(pts, dim))
	profilesIdentical(t, dense, viaWS)
}

func TestGeoMSTMatchesPrimRandomPlacements(t *testing.T) {
	rng := xrand.New(7)
	ws := NewWorkspace()
	// Side 16384 with n = 128 is the paper's sparsest 2-D regime; the small
	// sides push many points per grid cell; the sizes straddle the dense
	// cutoff, and the large n exercises several annulus rounds above it.
	for _, dim := range []int{1, 2, 3} {
		for _, side := range []float64{1, 64, 16384} {
			for _, n := range []int{3, 17, 128, denseCutoff(dim), denseCutoff(dim) + 1, 333} {
				reg := geom.MustRegion(side, dim)
				pts := reg.UniformPoints(rng, n)
				crossValidate(t, pts, dim, ws)
			}
		}
	}
}

func TestGeoMSTTinyInputs(t *testing.T) {
	ws := NewWorkspace()
	if got := GeoMST(nil, 2); len(got) != 0 {
		t.Fatalf("empty placement: %d edges", len(got))
	}
	if got := ws.GeoMST([]geom.Point{{X: 3}}, 2); len(got) != 0 {
		t.Fatalf("singleton: %d edges", len(got))
	}
	two := []geom.Point{{X: 1, Y: 2}, {X: 4, Y: 6}}
	got := GeoMST(two, 2)
	if len(got) != 1 || got[0].D != PrimMST(two)[0].D {
		t.Fatalf("two points: %+v vs prim %+v", got, PrimMST(two))
	}
}

func TestGeoMSTCoincidentPoints(t *testing.T) {
	ws := NewWorkspace()
	// All points identical: the MST is n-1 zero-weight edges.
	same := make([]geom.Point, 200)
	for i := range same {
		same[i] = geom.Point{X: 5, Y: 5}
	}
	crossValidate(t, same, 2, ws)

	// Coincident clusters far apart: every nearest-neighbor distance is 0,
	// which forces the fallback start radius.
	var clustered []geom.Point
	for c := 0; c < 30; c++ {
		p := geom.Point{X: float64(c) * 100, Y: float64(c%5) * 70}
		clustered = append(clustered, p, p, p)
	}
	crossValidate(t, clustered, 2, ws)

	// A few duplicates inside a random placement.
	rng := xrand.New(9)
	reg := geom.MustRegion(50, 2)
	pts := reg.UniformPoints(rng, 90)
	for i := 0; i < 30; i++ {
		pts = append(pts, pts[i])
	}
	crossValidate(t, pts, 2, ws)
}

func TestGeoMSTCollinearPoints(t *testing.T) {
	ws := NewWorkspace()
	// Collinear in 2-D, irregular gaps, including repeated gap lengths.
	var pts []geom.Point
	x := 0.0
	gaps := []float64{1, 3, 1, 7, 0.25, 3, 3, 12, 1}
	for i := 0; i < 60; i++ {
		pts = append(pts, geom.Point{X: x, Y: 2 * x})
		x += gaps[i%len(gaps)]
	}
	crossValidate(t, pts, 2, ws)
}

func TestGeoMSTSparseOutlier(t *testing.T) {
	// One far outlier forces the radius-doubling escalation: the cluster
	// resolves in the first rounds, the outlier's component finds no
	// outgoing edge until the search radius spans the gap.
	rng := xrand.New(11)
	reg := geom.MustRegion(10, 2)
	pts := reg.UniformPoints(rng, 100)
	pts = append(pts, geom.Point{X: 90000, Y: 90000})
	crossValidate(t, pts, 2, NewWorkspace())
}

func TestWorkspaceProfileMatchesNewProfile(t *testing.T) {
	rng := xrand.New(13)
	ws := NewWorkspace()
	for _, dim := range []int{1, 2, 3} {
		reg := geom.MustRegion(1000, dim)
		for _, n := range []int{0, 1, 2, 40, 200} {
			pts := reg.UniformPoints(rng, n)
			var want *Profile
			if dim == 1 {
				xs := make([]float64, n)
				for i, p := range pts {
					xs[i] = p.X
				}
				want = NewProfile1D(xs)
			} else {
				want = NewProfile(pts)
			}
			profilesIdentical(t, want, ws.Profile(pts, dim))
			// Clone must survive the workspace moving to the next snapshot.
			clone := ws.Profile(pts, dim).Clone()
			ws.Profile(reg.UniformPoints(rng, 64), dim)
			profilesIdentical(t, want, clone)
		}
	}
}

func TestWorkspaceProfileSteadyStateAllocs(t *testing.T) {
	rng := xrand.New(17)
	reg := geom.MustRegion(16384, 2)
	placements := make([][]geom.Point, 8)
	for i := range placements {
		placements[i] = reg.UniformPoints(rng, 256)
	}
	ws := NewWorkspace()
	for _, pts := range placements {
		ws.Profile(pts, 2) // warm the buffers
	}
	i := 0
	avg := testing.AllocsPerRun(64, func() {
		ws.Profile(placements[i%len(placements)], 2)
		i++
	})
	if avg > 0.5 {
		t.Fatalf("steady-state workspace profile allocates %v allocs/op, want 0", avg)
	}
}

func TestWorkspacePointGraphMatchesBuildPointGraph(t *testing.T) {
	rng := xrand.New(19)
	reg := geom.MustRegion(100, 2)
	ws := NewWorkspace()
	for _, n := range []int{0, 1, 2, 77, 150} {
		pts := reg.UniformPoints(rng, n)
		for _, r := range []float64{0, 5, 20, 300} {
			want := BuildPointGraph(pts, 2, r)
			got := ws.PointGraph(pts, 2, r)
			if want.N != got.N || len(want.nbrs) != len(got.nbrs) {
				t.Fatalf("n=%d r=%v: graph n=%d/%d edges=%d/%d",
					n, r, got.N, want.N, len(got.nbrs)/2, len(want.nbrs)/2)
			}
			_, wantSizes := want.Components()
			comps, largest := ws.ComponentSummary(got)
			if comps != len(wantSizes) {
				t.Fatalf("n=%d r=%v: %d components, want %d", n, r, comps, len(wantSizes))
			}
			wantLargest := 0
			for _, s := range wantSizes {
				if s > wantLargest {
					wantLargest = s
				}
			}
			if largest != wantLargest {
				t.Fatalf("n=%d r=%v: largest %d, want %d", n, r, largest, wantLargest)
			}
		}
	}
}

// TestGeoMSTOutsiderRoundsFire pins that the strict-sequence seeds reach the
// outsider rounds (each outsider scan is one grid near query), so
// FuzzGeoMSTMatchesStrictKruskal's corpus exercises them on every run.
func TestGeoMSTOutsiderRoundsFire(t *testing.T) {
	ws := NewWorkspace()
	ws.SetSpatialBackend(spatial.BackendGrid)
	near := uint64(0)
	for _, s := range strictSeedPlacements() {
		ws.GeoMST(s.pts, s.dim)
		near += ws.TakeStats().Grid.NearQueries
	}
	if near == 0 {
		t.Fatal("no seed placement reached an outsider round")
	}
}

// TestGeoMSTCountsRounds checks that the plain MST path reports its annulus
// work on both backends: every tree edge is an accepted candidate, so the
// candidate count is at least n-1.
func TestGeoMSTCountsRounds(t *testing.T) {
	const n = 4096
	pts := geom.MustRegion(1000, 2).UniformPoints(xrand.New(17), n)
	for _, b := range []spatial.Backend{spatial.BackendGrid, spatial.BackendKDTree} {
		ws := NewWorkspace()
		ws.SetSpatialBackend(b)
		ws.GeoMST(pts, 2)
		st := ws.TakeStats()
		if st.MSTRounds < 1 || st.MSTCandidates < n-1 {
			t.Errorf("%v: MSTRounds %d, MSTCandidates %d; want >= 1 and >= %d", b, st.MSTRounds, st.MSTCandidates, n-1)
		}
	}
}

// TestGridRoundsScanPairsOnce pins the grid rounds' schedule on uniform
// placements: in 2-D round one, at 1.3 times the mean spacing, leaves a
// component above n/2, so every later round is an outsider round and an
// MST makes exactly one full pair scan; in 3-D the mean spacing does that
// already. Below n = 1024 a seed or two in 20 still needs a second scan, so
// the test starts there.
func TestGridRoundsScanPairsOnce(t *testing.T) {
	ws := NewWorkspace()
	ws.SetSpatialBackend(spatial.BackendGrid)
	for _, dim := range []int{2, 3} {
		reg := geom.MustRegion(1000, dim)
		for _, n := range []int{1024, 2048, 16384} {
			seeds := 20
			if n == 16384 {
				seeds = 5
			}
			for seed := range seeds {
				ws.Profile(reg.UniformPoints(xrand.New(uint64(seed)), n), dim)
				if got := ws.TakeStats().Grid.PairQueries; got != 1 {
					t.Errorf("dim %d, n %d, seed %d: %d full pair scans, want 1", dim, n, seed, got)
				}
			}
		}
	}
}

// TestGeoMSTMatchesStrictKruskalLarger checks the exact edge sequence at
// sizes where the first rounds' batches are bucketed and the late rounds
// scan only outsiders.
func TestGeoMSTMatchesStrictKruskalLarger(t *testing.T) {
	rng := xrand.New(29)
	ws := NewWorkspace()
	reg := geom.MustRegion(1000, 2)
	checkStrictSequence(t, ws, reg.UniformPoints(rng, 1500), 2)
	var islands []geom.Point
	for c := 0; c < 6; c++ {
		cx, cy := rng.Range(0, 1000), rng.Range(0, 1000)
		for i := 0; i < 200; i++ {
			islands = append(islands, geom.Point{X: cx + rng.Range(-10, 10), Y: cy + rng.Range(-10, 10)})
		}
	}
	checkStrictSequence(t, ws, islands, 2)
}

// replayBatch returns count candidates over distinct pairs of n points,
// each at squared distance d2().
func replayBatch(rng *xrand.Rand, n, count int, d2 func() float64) []candidate {
	seen := make(map[[2]int32]bool)
	var batch []candidate
	for len(batch) < count {
		i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
		i, j = min(i, j), max(i, j)
		if i == j || seen[[2]int32{i, j}] {
			continue
		}
		seen[[2]int32{i, j}] = true
		batch = append(batch, candidate{d2: d2(), i: i, j: j})
	}
	return batch
}

// TestBucketReplayMatchesSortedReplay checks the bucketed replay against
// sorting the batch and the kept edges at or below r2 together and
// replaying them: on a batch with many tied distances, whose largest equals
// r2; on a first round (lo2 = -1) with zero distances; on an overflow round
// (r2 = +Inf) with infinite distances; on a batch short enough to be sorted
// whole; and with a kept stream running past r2, on points too many for
// the batch to span, so the stream's merge after the batch runs too.
func TestBucketReplayMatchesSortedReplay(t *testing.T) {
	rng := xrand.New(31)
	tied := func(lo int) func() float64 { return func() float64 { return float64(lo + rng.Intn(40)) } }
	for _, tc := range []struct {
		name    string
		n       int
		lo2, r2 float64
		batch   []candidate
		kept    []candidate
	}{
		{name: "tied", n: 300, lo2: 9, r2: 49, batch: replayBatch(rng, 300, 3000, tied(10))},
		{name: "first round", n: 300, lo2: -1, r2: 39, batch: replayBatch(rng, 300, 3000, tied(0))},
		{name: "overflow round", n: 300, lo2: 1e307, r2: math.Inf(1), batch: replayBatch(rng, 300, 3000, func() float64 {
			return 1e307 * float64(2+rng.Intn(30)) // +Inf from 1.8e308 up
		})},
		{name: "short", n: 300, lo2: 9, r2: 49, batch: replayBatch(rng, 300, bucketReplayCutoff, tied(10))},
		{name: "kept stream", n: 3000, lo2: 9, r2: 49,
			batch: replayBatch(rng, 3000, 3000, func() float64 { return 9 + 40*(1-rng.Float64()) }),
			kept:  replayBatch(rng, 3000, 1000, func() float64 { return float64(rng.Intn(60)) })},
	} {
		// A pair both kept and in the batch is harmless: both replays
		// reject its second copy.
		sortCandidates(tc.kept)
		stream := slices.Clone(tc.batch)
		var rest []candidate
		for _, c := range tc.kept {
			if c.d2 <= tc.r2 {
				stream = append(stream, c)
			} else {
				rest = append(rest, c)
			}
		}
		want := strictReplay(tc.n, stream)
		ws := NewWorkspace()
		ws.uf.Reset(tc.n)
		ws.edges = ws.edges[:0]
		ws.kept = tc.kept
		done := ws.bucketReplay(slices.Clone(tc.batch), tc.lo2, tc.r2)
		if done != (len(want) == tc.n-1) || !slices.Equal(ws.edges, want) {
			t.Errorf("%s: done=%v, %d edges differ from the sorted replay's %d", tc.name, done, len(ws.edges), len(want))
		}
		if !done && !slices.Equal(ws.kept, rest) {
			t.Errorf("%s: %d kept edges left, want the %d above r2", tc.name, len(ws.kept), len(rest))
		}
	}
}

// expectNonFinitePanic runs call on its own goroutine and fails unless it
// panics with GeoMST's non-finite-extent message within 5s: the bug it
// guards against is a radius-doubling loop that never returns.
func expectNonFinitePanic(t *testing.T, what string, call func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		call()
	}()
	select {
	case p := <-done:
		if msg, _ := p.(string); !strings.Contains(msg, "non-finite") {
			t.Errorf("%s: recovered %v, want a non-finite-extent panic", what, p)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: did not return within 5s", what)
	}
}

// TestGeoMSTNonFiniteCoordinatesPanic checks that a NaN or infinite
// coordinate makes GeoMST panic with a descriptive message instead of
// doubling its radius forever, wherever the bad point sits (index 0 seeds
// the bounding box), and that the spatial entry points it rests on return.
func TestGeoMSTNonFiniteCoordinatesPanic(t *testing.T) {
	reg := geom.MustRegion(1000, 2)
	for _, tc := range []struct {
		at int
		v  float64
	}{{0, math.NaN()}, {57, math.NaN()}, {57, math.Inf(1)}, {0, math.Inf(-1)}} {
		pts := reg.UniformPoints(xrand.New(37), 200)
		pts[tc.at].X = tc.v
		expectNonFinitePanic(t, fmt.Sprintf("X[%d] = %v", tc.at, tc.v), func() {
			spatial.ChooseBackend(pts, 2, 10)
			spatial.NewIndex(pts, 2, 10)
			NewWorkspace().GeoMST(pts, 2)
		})
	}
}

// TestGeoMSTDenseNonFinitePanics checks the dense Prim's side of the
// non-finite contract: at or below the dense cutoff a NaN or infinite
// coordinate panics with the same message as above it, in each axis the
// placement uses.
func TestGeoMSTDenseNonFinitePanics(t *testing.T) {
	for _, dim := range []int{2, 3} {
		reg := geom.MustRegion(1000, dim)
		for _, n := range []int{16, denseCutoff(dim)} {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				pts := reg.UniformPoints(xrand.New(53), n)
				if dim == 3 {
					pts[n/2].Z = v
				} else {
					pts[n/2].Y = v
				}
				expectNonFinitePanic(t, fmt.Sprintf("dim %d, n %d, coordinate %v", dim, n, v), func() {
					NewWorkspace().GeoMST(pts, dim)
				})
			}
		}
	}
}

// TestOneShotHelpersLeaveNoPooledCounters checks that the package-level
// helpers drain their pooled workspace's counters, so an acquirer (the
// scheduler's pooled evaluators) never flushes another caller's work.
func TestOneShotHelpersLeaveNoPooledCounters(t *testing.T) {
	pts := geom.MustRegion(1000, 2).UniformPoints(xrand.New(41), 200)
	for name, call := range map[string]func(){
		"GeoMST":        func() { GeoMST(pts, 2) },
		"NewProfile":    func() { NewProfile(pts) },
		"MSTBottleneck": func() { MSTBottleneck(pts) },
	} {
		call()
		ws := AcquireWorkspace()
		got := ws.TakeStats()
		ReleaseWorkspace(ws)
		if got != (WorkspaceStats{}) {
			t.Errorf("after %s: the next acquirer sees counters %+v, want zero", name, got)
		}
	}
}
