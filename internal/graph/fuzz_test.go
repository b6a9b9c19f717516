package graph

import (
	"encoding/binary"
	"fmt"
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
// Kruskal edge sequence, element by element, under each forced backend, at
// every n; that ws.Critical returns its largest edge weight; and that
// ws.Profile, whose dense Prim breaks ties its own way, has its profile's
// observables (profilesIdentical). In 1-D Critical and Profile read sorted
// gaps, not threshold radii, so they are checked from 2-D up.
func checkStrictSequence(t *testing.T, ws *Workspace, pts []geom.Point, dim int) {
	t.Helper()
	want := strictKruskal(pts)
	crit := 0.0
	for _, e := range want {
		crit = max(crit, e.D)
	}
	var wantProf *Profile
	if dim > 1 {
		wantProf = profileFromMST(len(pts), want)
	}
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
		if dim == 1 {
			continue
		}
		if c := ws.Critical(pts, dim); math.Float64bits(c) != math.Float64bits(crit) {
			t.Fatalf("%v, n=%d dim=%d: Critical %v, strict Kruskal's largest edge %v", b, len(pts), dim, c, crit)
		}
		profilesIdentical(t, wantProf, ws.Profile(pts, dim))
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
// the k-d tree each forced (checkStrictSequence). That exact sequence is
// what the kinetic cache replays and rangeassign reads, so the outsider
// rounds and the bucketed replay must keep it at every n. Below the
// dense cutoff Critical's largest edge and Profile's observables both come
// from the dense Prim, so the same check covers its tree and its largest
// key. The seeds come in two sizes: as built, above the dense cutoff, and
// cut down to it, so the ties of each seed reach the dense Prim and the
// annulus rounds.
func FuzzGeoMSTMatchesStrictKruskal(f *testing.F) {
	for _, s := range strictSeedPlacements() {
		f.Add(encodeFuzzPoints(s.pts, s.dim))
		f.Add(encodeFuzzPoints(s.pts[:denseCutoff(s.dim)], s.dim))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, dim := geomtest.DecodeFuzzPoints(data, 400)
		checkStrictSequence(t, NewWorkspace(), pts, dim)
	})
}

// FuzzCriticalCertificate checks denseCritical's certificate across one
// move: Critical on the decoded points (at most the dense cutoff, so the
// dense path runs), then on the same workspace, whose kept tree now
// describes the old positions, after moving a fuzz-chosen subset of the
// points, must return strict Kruskal's largest edge both times, bit for
// bit. Every four bytes of moves move one point: its index modulo n, then
// a signed step per axis on the decoder's 1/16 lattice (Z only in 3-D), so
// ties and coincident points survive the move. Between the two calls
// Profile runs the same Prim on the same workspace, at the moved positions
// and on an unrelated placement of as many points (the moved one turned a
// quarter turn and renumbered); each profile must be strict Kruskal's, and the second
// Critical must certify exactly when it does on a workspace that ran no
// Profile, so Profile leaves the kept tree as it was.
func FuzzCriticalCertificate(f *testing.F) {
	for _, s := range strictSeedPlacements() {
		f.Add(encodeFuzzPoints(s.pts[:denseCutoff(s.dim)], s.dim), []byte{0, 16, 240, 0, 5, 1, 255, 3, 17, 128, 0, 127})
	}
	f.Fuzz(func(t *testing.T, data, moves []byte) {
		pts, dim := geomtest.DecodeFuzzPoints(data, geoMSTDenseCutoff3D)
		if dim == 1 || len(pts) < 2 {
			return
		}
		pts = pts[:min(len(pts), denseCutoff(dim))]
		ws, plain := NewWorkspace(), NewWorkspace()
		check := func(when string) {
			t.Helper()
			want := bottleneck(strictKruskal(pts))
			if got := ws.Critical(pts, dim); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, n=%d dim=%d: Critical %v, strict Kruskal's largest edge %v", when, len(pts), dim, got, want)
			}
			plain.Critical(pts, dim)
			if got, want := ws.TakeStats().CriticalCertified, plain.TakeStats().CriticalCertified; got != want {
				t.Fatalf("%s, n=%d dim=%d: %d calls certified after Profile calls, %d without them", when, len(pts), dim, got, want)
			}
		}
		check("before the move")
		for ; len(moves) >= 4; moves = moves[4:] {
			p := &pts[int(moves[0])%len(pts)]
			p.X += float64(int8(moves[1])) / 16
			p.Y += float64(int8(moves[2])) / 16
			if dim == 3 {
				p.Z += float64(int8(moves[3])) / 16
			}
		}
		checkStrictProfile(t, ws, pts, dim)
		other := make([]geom.Point, len(pts))
		for i, p := range pts {
			other[len(pts)-1-i] = geom.Point{X: p.Y, Y: -p.X, Z: p.Z}
		}
		checkStrictProfile(t, ws, other, dim)
		check("after the move")
	})
}

// FuzzLargestCurve makes TestLargestCurveMatchesProfile's comparison
// (checkLargestCurve) on decoded points. Bit i of signs negates point i's
// coordinates, so 1-D placements get -0 gaps, and scale multiplies every
// coordinate by 2^(4*scale), up to 2^1012 in 1-D, where a gap can then
// overflow to +Inf, and up to 2^1010 in 2-D and 3-D, where squared
// distances can overflow but the bounding extent stays finite.
func FuzzLargestCurve(f *testing.F) {
	for _, s := range strictSeedPlacements() {
		f.Add(encodeFuzzPoints(s.pts[:denseCutoff(s.dim)], s.dim), byte(0), []byte{})
	}
	// 1-D: +0 and -0 among small integers, and two spots at ±4095·2^1012,
	// whose gap overflows to +Inf.
	line, far := make([]geom.Point, 40), make([]geom.Point, 40)
	for i := range line {
		line[i].X, far[i].X = float64(i%5), 4095
	}
	f.Add(encodeFuzzPoints(line, 1), byte(0), []byte{0x55, 0xf0, 0x0f, 0xaa, 0x33})
	f.Add(encodeFuzzPoints(far, 1), byte(255), []byte{0x55, 0xf0, 0x0f, 0xaa, 0x33})
	f.Add(encodeFuzzPoints(strictSeedPlacements()[0].pts[:50], 2), byte(255), []byte{0x0f})
	f.Fuzz(func(t *testing.T, data []byte, scale byte, signs []byte) {
		pts, dim := geomtest.DecodeFuzzPoints(data, 400)
		exp := min(4*int(scale), 1012)
		if dim > 1 {
			exp = min(exp, 1010) // a bounding extent past MaxFloat64 panics
		}
		for i := range pts {
			p := &pts[i]
			p.X, p.Y, p.Z = math.Ldexp(p.X, exp), math.Ldexp(p.Y, exp), math.Ldexp(p.Z, exp)
			if i/8 < len(signs) && signs[i/8]>>(i%8)&1 == 1 {
				p.X, p.Y, p.Z = -p.X, -p.Y, -p.Z
			}
		}
		p := NewWorkspace().Profile(pts, dim)
		checkLargestCurve(t, fmt.Sprintf("n=%d dim=%d", len(pts), dim), p, p.AppendLargestCurve(nil))
	})
}
