package graph

import (
	"math"
	"sort"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

// pathGraph returns the path 0-1-2-...-n-1.
func pathGraph(n int) *Adjacency {
	var edges []Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1), 1})
	}
	return AdjacencyFromEdges(n, edges)
}

// cycleGraph returns the cycle on n nodes.
func cycleGraph(n int) *Adjacency {
	edges := []Edge{{int32(n - 1), 0, 1}}
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1), 1})
	}
	return AdjacencyFromEdges(n, edges)
}

func TestDegreeStats(t *testing.T) {
	a := AdjacencyFromEdges(4, []Edge{{0, 1, 1}, {1, 2, 1}})
	ds := a.DegreeStats()
	if ds.Min != 0 || ds.Max != 2 || ds.Isolated != 1 {
		t.Fatalf("DegreeStats = %+v", ds)
	}
	if math.Abs(ds.Mean-1) > 1e-12 { // degrees 1,2,1,0
		t.Fatalf("mean degree = %v", ds.Mean)
	}
	if got := AdjacencyFromEdges(0, nil).DegreeStats(); got != (DegreeStats{}) {
		t.Fatalf("empty graph DegreeStats = %+v", got)
	}
}

func TestBFSDistances(t *testing.T) {
	a := pathGraph(5)
	d := a.BFSDistances(0)
	for i := 0; i < 5; i++ {
		if d[i] != int32(i) {
			t.Fatalf("dist[%d] = %d", i, d[i])
		}
	}
	// Disconnected node unreachable.
	b := AdjacencyFromEdges(3, []Edge{{0, 1, 1}})
	d = b.BFSDistances(0)
	if d[2] != -1 {
		t.Fatalf("unreachable node distance = %d", d[2])
	}
	// Out-of-range start yields all -1.
	d = b.BFSDistances(-1)
	for _, v := range d {
		if v != -1 {
			t.Fatal("invalid start should reach nothing")
		}
	}
}

func TestHopStats(t *testing.T) {
	// Path on 4 nodes: diameter 3; ordered pairs 12; mean hops =
	// 2*(1+2+3 + 1+2 + 1)/12 = 20/12.
	hs := pathGraph(4).HopStats()
	if hs.Diameter != 3 {
		t.Fatalf("diameter = %d", hs.Diameter)
	}
	if hs.Pairs != 12 {
		t.Fatalf("pairs = %d", hs.Pairs)
	}
	if math.Abs(hs.MeanHops-20.0/12.0) > 1e-12 {
		t.Fatalf("mean hops = %v", hs.MeanHops)
	}
	// Empty graph: all zeros.
	if got := AdjacencyFromEdges(2, nil).HopStats(); got != (HopStats{}) {
		t.Fatalf("edgeless HopStats = %+v", got)
	}
}

func TestHopStatsCycle(t *testing.T) {
	// Cycle of 6: diameter 3.
	hs := cycleGraph(6).HopStats()
	if hs.Diameter != 3 {
		t.Fatalf("cycle diameter = %d", hs.Diameter)
	}
	if hs.Pairs != 30 {
		t.Fatalf("cycle pairs = %d", hs.Pairs)
	}
}

func TestArticulationPointsPath(t *testing.T) {
	// In a path all interior nodes are cut vertices.
	cuts := pathGraph(5).ArticulationPoints()
	sort.Ints(cuts)
	want := []int{1, 2, 3}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
}

func TestArticulationPointsCycle(t *testing.T) {
	if cuts := cycleGraph(5).ArticulationPoints(); len(cuts) != 0 {
		t.Fatalf("cycle has cut vertices: %v", cuts)
	}
}

func TestArticulationPointsTwoTriangles(t *testing.T) {
	// Two triangles sharing node 2: node 2 is the only cut vertex.
	edges := []Edge{
		{0, 1, 1}, {1, 2, 1}, {2, 0, 1},
		{2, 3, 1}, {3, 4, 1}, {4, 2, 1},
	}
	cuts := AdjacencyFromEdges(5, edges).ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cuts = %v, want [2]", cuts)
	}
}

func TestArticulationPointsDisconnected(t *testing.T) {
	// Two separate paths: interior nodes of both are cuts.
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {4, 5, 1}}
	cuts := AdjacencyFromEdges(6, edges).ArticulationPoints()
	sort.Ints(cuts)
	if len(cuts) != 2 || cuts[0] != 1 || cuts[1] != 4 {
		t.Fatalf("cuts = %v, want [1 4]", cuts)
	}
}

// bruteForceArticulation removes each vertex and counts components.
func bruteForceArticulation(a *Adjacency, edges []Edge) []int {
	_, baseSizes := a.Components()
	base := len(baseSizes)
	var cuts []int
	for v := 0; v < a.N; v++ {
		var kept []Edge
		for _, e := range edges {
			if int(e.I) != v && int(e.J) != v {
				kept = append(kept, e)
			}
		}
		sub := AdjacencyFromEdges(a.N, kept)
		_, sizes := sub.Components()
		// Removing v leaves v itself as a singleton component; discount it.
		if len(sizes)-1 > base {
			cuts = append(cuts, v)
		}
	}
	return cuts
}

func TestArticulationPointsAgainstBruteForce(t *testing.T) {
	rng := xrand.New(33)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(12)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Bool(0.25) {
					edges = append(edges, Edge{int32(i), int32(j), 1})
				}
			}
		}
		a := AdjacencyFromEdges(n, edges)
		got := a.ArticulationPoints()
		want := bruteForceArticulation(a, edges)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d, m=%d): got %v, want %v", trial, n, len(edges), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestIsBiconnected(t *testing.T) {
	if pathGraph(4).IsBiconnected() {
		t.Error("path should not be biconnected")
	}
	if !cycleGraph(4).IsBiconnected() {
		t.Error("cycle should be biconnected")
	}
	if AdjacencyFromEdges(3, nil).IsBiconnected() {
		t.Error("disconnected graph should not be biconnected")
	}
	if !AdjacencyFromEdges(2, []Edge{{0, 1, 1}}).IsBiconnected() {
		t.Error("a connected pair counts as biconnected by convention")
	}
	if !AdjacencyFromEdges(1, nil).IsBiconnected() {
		t.Error("a single node counts as biconnected by convention")
	}
}

func BenchmarkHopStats128(b *testing.B) {
	rng := xrand.New(1)
	reg := geom.MustRegion(16384, 2)
	pts := reg.UniformPoints(rng, 128)
	a := BuildPointGraph(pts, 2, 2500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.HopStats()
	}
}

// fleetGraph is one snapshot at the structure-fleet benchmark shape: n = 512
// uniform nodes in a 4096 x 4096 square at transmitting range 400.
func fleetGraph() *Adjacency {
	pts := geom.MustRegion(4096, 2).UniformPoints(xrand.New(1), 512)
	return BuildPointGraph(pts, 2, 400)
}

func BenchmarkHopStats512(b *testing.B) {
	a := fleetGraph()
	b.ReportAllocs()
	for b.Loop() {
		a.HopStats()
	}
}

func BenchmarkStructurePass512(b *testing.B) {
	a := fleetGraph()
	ws := NewWorkspace()
	b.ReportAllocs()
	for b.Loop() {
		ws.Structure(a)
	}
}

// TestWorkspaceStructureSteadyStateAllocs pins the zero-allocation contract
// of the structure pass EvaluateStructure runs once per snapshot.
func TestWorkspaceStructureSteadyStateAllocs(t *testing.T) {
	a := fleetGraph()
	ws := NewWorkspace()
	ws.Structure(a)
	if allocs := testing.AllocsPerRun(10, func() { ws.Structure(a) }); allocs != 0 {
		t.Fatalf("Workspace.Structure allocates %v times per call in steady state", allocs)
	}
}

func BenchmarkArticulationPoints128(b *testing.B) {
	rng := xrand.New(1)
	reg := geom.MustRegion(16384, 2)
	pts := reg.UniformPoints(rng, 128)
	a := BuildPointGraph(pts, 2, 2500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ArticulationPoints()
	}
}
