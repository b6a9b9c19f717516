package graph

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/geomtest"
	"adhocnet/internal/spatial"
	"adhocnet/internal/xrand"
)

// fuzzGraphSizes are the node counts FuzzHopStatsMatchesBFS draws from: the
// empty and single-node graphs, both sides of a 64-source word boundary, both
// sides of a 512-source block boundary, and three blocks with a partial last
// one.
var fuzzGraphSizes = [...]int{0, 1, 63, 64, 65, 511, 512, 513, 1100}

// decodeFuzzGraph maps fuzz bytes to an edge list: data[0] picks the node
// count from fuzzGraphSizes, data[1] a backbone (none, a path through all
// nodes, a path through the even nodes), and every further four bytes one
// edge whose little-endian uint16 endpoints are reduced modulo n, so
// self-loops, duplicate edges and disconnected graphs all occur.
func decodeFuzzGraph(data []byte) (int, []Edge) {
	if len(data) < 2 {
		return 0, nil
	}
	n := fuzzGraphSizes[int(data[0])%len(fuzzGraphSizes)]
	if n == 0 {
		return 0, nil
	}
	var edges []Edge
	switch data[1] % 3 {
	case 1:
		for i := 0; i+1 < n; i++ {
			edges = append(edges, Edge{I: int32(i), J: int32(i + 1)})
		}
	case 2:
		for i := 0; i+2 < n; i += 2 {
			edges = append(edges, Edge{I: int32(i), J: int32(i + 2)})
		}
	}
	for rest := data[2:]; len(rest) >= 4; rest = rest[4:] {
		i := int(binary.LittleEndian.Uint16(rest)) % n
		j := int(binary.LittleEndian.Uint16(rest[2:])) % n
		edges = append(edges, Edge{I: int32(i), J: int32(j)})
	}
	return n, edges
}

// hopStatsBFS is the reference for HopStats: one BFS per source.
func hopStatsBFS(a *Adjacency) HopStats {
	var hs HopStats
	total := 0
	for s := 0; s < a.N; s++ {
		for _, d := range a.BFSDistances(s) {
			if d <= 0 { // unreachable or self
				continue
			}
			hs.Pairs++
			total += int(d)
			hs.Diameter = max(hs.Diameter, int(d))
		}
	}
	if hs.Pairs > 0 {
		hs.MeanHops = float64(total) / float64(hs.Pairs)
	}
	return hs
}

// FuzzHopStatsMatchesBFS checks the bit-parallel all-sources BFS against one
// BFS per source, bit for bit, across word and block boundaries, and checks
// every field of the workspace structure pass, run on scratch left dirty by
// a larger graph, against the component sizes and the Adjacency methods.
func FuzzHopStatsMatchesBFS(f *testing.F) {
	for size := range fuzzGraphSizes {
		for backbone := byte(0); backbone < 3; backbone++ {
			f.Add([]byte{byte(size), backbone, 7, 0, 200, 1, 3, 0, 3, 0, 9, 4, 1, 0})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeFuzzGraph(data)
		a := AdjacencyFromEdges(n, edges)
		want := hopStatsBFS(a)
		if got := a.HopStats(); got != want {
			t.Fatalf("n=%d m=%d: HopStats = %+v, per-source BFS = %+v", n, len(edges), got, want)
		}

		ws := NewWorkspace()
		ws.Structure(pathGraph(n + 70))
		s := ws.Structure(a)
		_, sizes := a.Components()
		nonSingleton := 0
		for _, size := range sizes {
			if size > 1 {
				nonSingleton++
			}
		}
		cuts := len(a.ArticulationPoints())
		if n <= 65 {
			if brute := bruteForceArticulation(a, edges); len(brute) != cuts {
				t.Fatalf("n=%d: %d cut vertices, brute force finds %v", n, cuts, brute)
			}
		}
		wantBi := a.Connected() && (n <= 2 || cuts == 0)
		switch {
		case s.Hops != want:
			t.Fatalf("n=%d: Structure.Hops = %+v, per-source BFS = %+v", n, s.Hops, want)
		case s.Degree != a.DegreeStats():
			t.Fatalf("n=%d: Structure.Degree = %+v, DegreeStats = %+v", n, s.Degree, a.DegreeStats())
		case s.Components != len(sizes) || s.Largest != a.LargestComponentSize():
			t.Fatalf("n=%d: Structure components %d/%d, Components sizes %v", n, s.Components, s.Largest, sizes)
		case s.IsolatedOnly != (nonSingleton <= 1):
			t.Fatalf("n=%d: IsolatedOnly = %v with %d non-singleton components", n, s.IsolatedOnly, nonSingleton)
		case s.Articulation != cuts:
			t.Fatalf("n=%d: Structure.Articulation = %d, ArticulationPoints has %d", n, s.Articulation, cuts)
		case s.Biconnected != wantBi || a.IsBiconnected() != wantBi:
			t.Fatalf("n=%d: Biconnected = %v, IsBiconnected = %v, want %v", n, s.Biconnected, a.IsBiconnected(), wantBi)
		}
	})
}

// FuzzGeoMSTMatchesDensePrim checks the grid-accelerated filtered Kruskal
// against the dense Prim on arbitrary point sets: both must produce spanning
// trees with the exact same weight multiset (the weight multiset of a
// minimum spanning tree is unique, and both algorithms compute weights with
// the same thresholdRadius(d2) arithmetic), which is the invariant the
// bit-identical connectivity profiles rest on.
func FuzzGeoMSTMatchesDensePrim(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 16, 0, 16, 0})             // dim 2, coincident pair
	f.Add([]byte{0, 1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 32, 0}) // dim 1, collinear
	seed := []byte{2}
	for i := 0; i < 80; i++ { // dim 3, enough points for the grid path
		x := uint16(i * 2654435761)
		seed = append(seed, byte(x), byte(x>>8), byte(x>>3), byte(x>>11), byte(x>>5), byte(x>>13))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, dim := geomtest.DecodeFuzzPoints(data, 150)
		geo := GeoMST(pts, dim)
		prim := PrimMST(pts)
		if len(geo) != len(prim) {
			t.Fatalf("edge counts differ: GeoMST %d, PrimMST %d (n=%d)", len(geo), len(prim), len(pts))
		}
		if len(pts) >= 1 && len(geo) != len(pts)-1 {
			t.Fatalf("GeoMST returned %d edges for %d points, not spanning", len(geo), len(pts))
		}
		gw := make([]float64, len(geo))
		pw := make([]float64, len(prim))
		for i := range geo {
			gw[i] = geo[i].D
			pw[i] = prim[i].D
		}
		slices.Sort(gw)
		slices.Sort(pw)
		for i := range gw {
			if gw[i] != pw[i] {
				t.Fatalf("weight multiset differs at rank %d: GeoMST %v, PrimMST %v (n=%d, dim=%d)",
					i, gw[i], pw[i], len(pts), dim)
			}
		}
	})
}

// strictReplay is the reference Kruskal replay: the candidates sorted by
// candLess, then offered in turn to a union-find over n points.
func strictReplay(n int, cand []candidate) []Edge {
	cand = slices.Clone(cand)
	slices.SortFunc(cand, func(a, b candidate) int {
		switch {
		case candLess(a, b):
			return -1
		case candLess(b, a):
			return 1
		}
		return 0
	})
	uf := NewUnionFind(n)
	var edges []Edge
	for _, c := range cand {
		if uf.Union(c.i, c.j) {
			edges = append(edges, Edge{I: c.i, J: c.j, D: thresholdRadius(c.d2)})
		}
	}
	return edges
}

// strictKruskal is the reference for GeoMST's edge sequence: every pair,
// replayed in strict (d2, i, j) order.
func strictKruskal(pts []geom.Point) []Edge {
	var cand []candidate
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			cand = append(cand, candidate{d2: geom.Dist2(pts[i], pts[j]), i: int32(i), j: int32(j)})
		}
	}
	return strictReplay(len(pts), cand)
}

// checkStrictSequence asserts that ws.GeoMST returns exactly the strict
// Kruskal edge sequence, element by element, under each forced backend.
func checkStrictSequence(t *testing.T, ws *Workspace, pts []geom.Point, dim int) {
	t.Helper()
	want := strictKruskal(pts)
	for _, b := range []spatial.Backend{spatial.BackendGrid, spatial.BackendKDTree} {
		ws.SetSpatialBackend(b)
		got := ws.GeoMST(pts, dim)
		if len(got) != len(want) {
			t.Fatalf("%v, n=%d dim=%d: %d edges, strict Kruskal has %d", b, len(pts), dim, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%v, n=%d dim=%d: edge %d is %+v, strict Kruskal has %+v", b, len(pts), dim, k, got[k], want[k])
			}
		}
	}
}

// encodeFuzzPoints is the inverse of geomtest.DecodeFuzzPoints for points
// with coordinates in [0, 4096) on its 1/16 lattice.
func encodeFuzzPoints(pts []geom.Point, dim int) []byte {
	out := []byte{byte(dim - 1)}
	for _, p := range pts {
		for _, c := range []float64{p.X, p.Y, p.Z}[:dim] {
			v := uint16(c * 16)
			out = append(out, byte(v), byte(v>>8))
		}
	}
	return out
}

// strictSeed is one seed input of FuzzGeoMSTMatchesStrictKruskal.
type strictSeed struct {
	dim int
	pts []geom.Point
}

// strictSeedPlacements are the seed inputs of FuzzGeoMSTMatchesStrictKruskal
// and TestGeoMSTOutsiderRoundsFire: lattice ties, coincident points,
// collinear points, a 3-D cloud and clustered islands, all on the fuzz
// decoder's lattice and large enough for the annulus rounds.
func strictSeedPlacements() []strictSeed {
	rng := xrand.New(23)
	coord := func(lo, hi float64) float64 { return math.Floor(rng.Range(lo, hi)*16) / 16 }
	var lattice, coincident, collinear, cloud3, islands []geom.Point
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			lattice = append(lattice, geom.Point{X: float64(100 + 7*x), Y: float64(100 + 7*y)})
		}
	}
	for i := 0; i < 90; i++ {
		p := geom.Point{X: coord(0, 4000), Y: coord(0, 4000)}
		coincident = append(coincident, p, p, p)
	}
	x := 10.0
	gaps := []float64{1, 3, 1, 7, 0.25, 3, 3, 12, 1}
	for i := 0; i < 200; i++ {
		collinear = append(collinear, geom.Point{X: x, Y: 2 * x})
		x += gaps[i%len(gaps)]
	}
	for i := 0; i < 300; i++ {
		cloud3 = append(cloud3, geom.Point{X: coord(0, 4000), Y: coord(0, 4000), Z: coord(0, 4000)})
	}
	for c := 0; c < 8; c++ {
		cx, cy := coord(100, 3900), coord(100, 3900)
		for i := 0; i < 45; i++ {
			islands = append(islands, geom.Point{X: cx + coord(-40, 40), Y: cy + coord(-40, 40)})
		}
	}
	return []strictSeed{{2, lattice}, {2, coincident}, {2, collinear}, {3, cloud3}, {2, islands}}
}

// FuzzGeoMSTMatchesStrictKruskal checks GeoMST's edge list — not only its
// weight multiset, as FuzzGeoMSTMatchesDensePrim does — against the strict
// (d2, i, j) Kruskal over all pairs, element by element, with the grid and
// the k-d tree each forced. That exact sequence is what the kinetic cache
// replays, so the outsider rounds and the filter-Kruskal replay must keep it.
// Inputs at or below geoMSTDenseCutoff take the dense Prim, whose edge order
// is Prim's, and are skipped.
func FuzzGeoMSTMatchesStrictKruskal(f *testing.F) {
	for _, s := range strictSeedPlacements() {
		f.Add(encodeFuzzPoints(s.pts, s.dim))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, dim := geomtest.DecodeFuzzPoints(data, 400)
		if len(pts) <= geoMSTDenseCutoff {
			return
		}
		checkStrictSequence(t, NewWorkspace(), pts, dim)
	})
}
