package graph

import (
	"math"
	"sort"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 || uf.Largest() != 1 {
		t.Fatalf("fresh UF: count=%d largest=%d", uf.Count(), uf.Largest())
	}
	if !uf.Union(0, 1) {
		t.Fatal("first union reported no merge")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeat union reported a merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 2)
	if uf.Count() != 2 {
		t.Fatalf("count = %d, want 2", uf.Count())
	}
	if uf.Largest() != 4 {
		t.Fatalf("largest = %d, want 4", uf.Largest())
	}
	if uf.Find(3) != uf.Find(1) {
		t.Fatal("3 and 1 should share a root")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Fatal("4 should be separate")
	}
	if s4, s0 := uf.size[uf.Find(4)], uf.size[uf.Find(0)]; s4 != 1 || s0 != 4 {
		t.Fatalf("set sizes wrong: %d, %d", s4, s0)
	}
}

// TestUnionFindLargestRoot checks that the tracked largest root stays the
// root of a largest set through random unions, ties included, and resets.
func TestUnionFindLargestRoot(t *testing.T) {
	rng := xrand.New(43)
	uf := NewUnionFind(0)
	for _, n := range []int{1, 2, 9, 200} {
		uf.Reset(n)
		for k := 0; k < 2*n; k++ {
			uf.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
			if root := uf.largestRoot; uf.Find(root) != root || int(uf.size[root]) != uf.Largest() {
				t.Fatalf("n=%d after %d unions: largestRoot %d has set size %d, largest is %d",
					n, k+1, root, uf.size[root], uf.Largest())
			}
		}
	}
}

func TestUnionFindZeroNodes(t *testing.T) {
	uf := NewUnionFind(0)
	if uf.Count() != 0 || uf.Largest() != 0 {
		t.Fatalf("empty UF: count=%d largest=%d", uf.Count(), uf.Largest())
	}
}

func TestAdjacencyFromEdges(t *testing.T) {
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {3, 3, 0}} // self-loop ignored
	a := AdjacencyFromEdges(4, edges)
	if e := len(a.nbrs) / 2; e != 2 {
		t.Fatalf("%d edges, want 2", e)
	}
	if a.Degree(0) != 1 || a.Degree(1) != 2 || a.Degree(2) != 1 || a.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d %d %d", a.Degree(0), a.Degree(1), a.Degree(2), a.Degree(3))
	}
	if iso := a.DegreeStats().Isolated; iso != 1 {
		t.Fatalf("isolated = %d, want 1", iso)
	}
	nbrs := a.Neighbors(1)
	got := []int{int(nbrs[0]), int(nbrs[1])}
	sort.Ints(got)
	if got[0] != 0 || got[1] != 2 {
		t.Fatalf("Neighbors(1) = %v", got)
	}
}

func TestComponents(t *testing.T) {
	// Two triangles and an isolated node.
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {3, 4, 1}, {4, 5, 1}, {5, 3, 1}}
	a := AdjacencyFromEdges(7, edges)
	labels, sizes := a.Components()
	if len(sizes) != 3 {
		t.Fatalf("components = %d, want 3", len(sizes))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("triangle 0-1-2 split across components")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("triangle 3-4-5 split across components")
	}
	if labels[0] == labels[3] || labels[0] == labels[6] {
		t.Fatal("distinct components share labels")
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	if sorted[0] != 1 || sorted[1] != 3 || sorted[2] != 3 {
		t.Fatalf("component sizes = %v", sizes)
	}
	if a.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if a.LargestComponentSize() != 3 {
		t.Fatalf("largest = %d, want 3", a.LargestComponentSize())
	}
}

func TestConnectedTrivialCases(t *testing.T) {
	if !AdjacencyFromEdges(0, nil).Connected() {
		t.Error("empty graph should be connected by convention")
	}
	if !AdjacencyFromEdges(1, nil).Connected() {
		t.Error("single-node graph should be connected")
	}
	if AdjacencyFromEdges(2, nil).Connected() {
		t.Error("two isolated nodes reported connected")
	}
	if AdjacencyFromEdges(0, nil).LargestComponentSize() != 0 {
		t.Error("empty graph largest component should be 0")
	}
}

func TestBuildPointGraph(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 1}, {X: 2.5}, {X: 10}}
	a := BuildPointGraph(pts, 1, 1.5)
	// Edges: (0,1) d=1, (1,2) d=1.5 (inclusive boundary). Node 3 isolated.
	if e := len(a.nbrs) / 2; e != 2 {
		t.Fatalf("%d edges, want 2", e)
	}
	if a.Connected() {
		t.Fatal("graph with isolated node 3 reported connected")
	}
	if a.LargestComponentSize() != 3 {
		t.Fatalf("largest = %d, want 3", a.LargestComponentSize())
	}
	if iso := a.DegreeStats().Isolated; iso != 1 {
		t.Fatalf("isolated = %d, want 1", iso)
	}
}

func TestPrimMSTKnownCase(t *testing.T) {
	// Square of side 1 plus a far point connected by distance 2.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 3, Y: 1},
	}
	mst := PrimMST(pts)
	if len(mst) != 4 {
		t.Fatalf("MST has %d edges, want 4", len(mst))
	}
	total := 0.0
	for _, e := range mst {
		total += e.D
	}
	if math.Abs(total-(1+1+1+2)) > 1e-9 {
		t.Fatalf("MST weight = %v, want 5", total)
	}
	if got := MSTBottleneck(pts); math.Abs(got-2) > 1e-9 {
		t.Fatalf("bottleneck = %v, want 2", got)
	}
}

func TestPrimMSTTrivial(t *testing.T) {
	if PrimMST(nil) != nil {
		t.Error("MST of no points should be nil")
	}
	if PrimMST([]geom.Point{{X: 1}}) != nil {
		t.Error("MST of one point should be nil")
	}
	if MSTBottleneck([]geom.Point{{X: 1}}) != 0 {
		t.Error("bottleneck of one point should be 0")
	}
}

// mstWeight sums edge lengths.
func mstWeight(edges []Edge) float64 {
	s := 0.0
	for _, e := range edges {
		s += e.D
	}
	return s
}

// kruskalReference computes MST weight with a simple Kruskal over all pairs.
func kruskalReference(pts []geom.Point) float64 {
	n := len(pts)
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{int32(i), int32(j), geom.Dist(pts[i], pts[j])})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].D < edges[b].D })
	uf := NewUnionFind(n)
	total := 0.0
	for _, e := range edges {
		if uf.Union(e.I, e.J) {
			total += e.D
		}
	}
	return total
}

func TestPrimMatchesKruskalRandom(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		dim := 1 + trial%3
		reg := geom.MustRegion(100, dim)
		pts := reg.UniformPoints(rng, 3+rng.Intn(60))
		prim := mstWeight(PrimMST(pts))
		kruskal := kruskalReference(pts)
		if math.Abs(prim-kruskal) > 1e-6 {
			t.Fatalf("trial %d (dim %d, n %d): Prim weight %v != Kruskal %v",
				trial, dim, len(pts), prim, kruskal)
		}
	}
}

func TestProfileAgainstDirectEvaluation(t *testing.T) {
	// The profile's ComponentsAt/LargestAt/ConnectedAt must agree with
	// building the point graph explicitly at a spread of radii.
	rng := xrand.New(9)
	for trial := 0; trial < 15; trial++ {
		dim := 1 + trial%3
		reg := geom.MustRegion(50, dim)
		pts := reg.UniformPoints(rng, 2+rng.Intn(50))
		prof := NewProfile(pts)
		for _, r := range []float64{0, 0.5, 1, 2, 5, 10, 25, 90} {
			a := BuildPointGraph(pts, dim, r)
			_, sizes := a.Components()
			if got, want := prof.ComponentsAt(r), len(sizes); got != want {
				t.Fatalf("trial %d r=%v: ComponentsAt=%d, direct=%d", trial, r, got, want)
			}
			if got, want := prof.LargestAt(r), a.LargestComponentSize(); got != want {
				t.Fatalf("trial %d r=%v: LargestAt=%d, direct=%d", trial, r, got, want)
			}
			if got, want := prof.ConnectedAt(r), a.Connected(); got != want {
				t.Fatalf("trial %d r=%v: ConnectedAt=%v, direct=%v", trial, r, got, want)
			}
		}
	}
}

func TestProfileCriticalIsExactThreshold(t *testing.T) {
	rng := xrand.New(10)
	reg := geom.MustRegion(100, 2)
	for trial := 0; trial < 10; trial++ {
		pts := reg.UniformPoints(rng, 30)
		prof := NewProfile(pts)
		rc := prof.Critical()
		if !BuildPointGraph(pts, 2, rc).Connected() {
			t.Fatalf("graph at critical radius %v not connected", rc)
		}
		if BuildPointGraph(pts, 2, rc*(1-1e-9)).Connected() {
			t.Fatalf("graph just below critical radius %v still connected", rc)
		}
		if got := MSTBottleneck(pts); math.Abs(got-rc) > 1e-12 {
			t.Fatalf("bottleneck %v != profile critical %v", got, rc)
		}
	}
}

func TestProfile1DMatchesGeneric(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		pts := make([]geom.Point, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
			pts[i] = geom.Point{X: xs[i]}
		}
		p1 := NewProfile1D(xs)
		p2 := NewProfile(pts)
		if math.Abs(p1.Critical()-p2.Critical()) > 1e-9 {
			t.Fatalf("trial %d: 1-D critical %v != generic %v", trial, p1.Critical(), p2.Critical())
		}
		for _, r := range []float64{0, 1, 5, 20, 100, 500} {
			if p1.ComponentsAt(r) != p2.ComponentsAt(r) {
				t.Fatalf("trial %d r=%v: components %d != %d",
					trial, r, p1.ComponentsAt(r), p2.ComponentsAt(r))
			}
			if p1.LargestAt(r) != p2.LargestAt(r) {
				t.Fatalf("trial %d r=%v: largest %d != %d",
					trial, r, p1.LargestAt(r), p2.LargestAt(r))
			}
		}
	}
}

func TestProfileTrivialSizes(t *testing.T) {
	p := NewProfile(nil)
	if p.Critical() != 0 || p.ComponentsAt(1) != 0 || p.LargestAt(1) != 0 {
		t.Fatal("empty profile wrong")
	}
	if !p.ConnectedAt(0) {
		t.Fatal("empty placement should count as connected")
	}
	p = NewProfile([]geom.Point{{X: 1}})
	if p.Critical() != 0 || !p.ConnectedAt(0) || p.LargestAt(0) != 1 {
		t.Fatal("singleton profile wrong")
	}
}

func TestProfileLargestAtBelowFirstMerge(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 10}}
	p := NewProfile(pts)
	if p.LargestAt(5) != 1 {
		t.Fatalf("LargestAt below first merge = %d, want 1", p.LargestAt(5))
	}
	if p.ComponentsAt(5) != 2 {
		t.Fatalf("ComponentsAt below first merge = %d, want 2", p.ComponentsAt(5))
	}
	if p.LargestAt(10) != 2 {
		t.Fatalf("LargestAt at merge radius = %d, want 2 (inclusive)", p.LargestAt(10))
	}
}

func TestMergeRadiiSortedAndComplete(t *testing.T) {
	rng := xrand.New(14)
	reg := geom.MustRegion(100, 3)
	pts := reg.UniformPoints(rng, 25)
	p := NewProfile(pts)
	radii := p.mergeRadii
	if len(radii) != len(pts)-1 {
		t.Fatalf("%d merge radii for %d points", len(radii), len(pts))
	}
	for i := 1; i < len(radii); i++ {
		if radii[i] < radii[i-1] {
			t.Fatalf("merge radii not sorted at %d", i)
		}
	}
	if radii[len(radii)-1] != p.Critical() {
		t.Fatal("last merge radius != critical")
	}
}

func BenchmarkPrimMST128(b *testing.B)  { benchProfile(b, 128, false) }
func BenchmarkProfile128(b *testing.B)  { benchProfile(b, 128, true) }
func BenchmarkProfile1024(b *testing.B) { benchProfile(b, 1024, true) }

func benchProfile(b *testing.B, n int, full bool) {
	rng := xrand.New(1)
	reg := geom.MustRegion(16384, 2)
	pts := reg.UniformPoints(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if full {
			NewProfile(pts)
		} else {
			PrimMST(pts)
		}
	}
}

func BenchmarkProfile1D16384(b *testing.B) {
	rng := xrand.New(1)
	xs := make([]float64, 16384)
	for i := range xs {
		xs[i] = rng.Float64() * 16384
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewProfile1D(xs)
	}
}
