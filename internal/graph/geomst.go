package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
)

// geoMSTDenseCutoff is the point count below which the dense O(n^2) Prim
// beats the grid machinery (grid builds cost more than the n^2 distance
// evaluations they avoid). Measured on the benchmarks in bench_test.go; see
// DESIGN.md for the ablation.
const geoMSTDenseCutoff = 48

// candidate is one filtered Kruskal candidate edge: the pair (i, j) at
// squared distance d2, ordered (d2, i, j) lexicographically so that ties in
// distance still yield one strict total order over edges (the standard
// device that makes greedy MST algorithms exact on non-distinct weights).
type candidate struct {
	d2   float64
	i, j int32
}

// candLess is the strict (d2, i, j) order. Kept as a plain function so the
// specialized sort below inlines it; the generic slices.SortFunc comparator
// indirection costs several times the comparison itself on the small batches
// this path sorts.
func candLess(a, b candidate) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// sortCandidates sorts the batch by candLess: insertion sort for short runs,
// median-of-three quicksort recursing on the smaller partition otherwise.
//
//adhoc:hotpath
func sortCandidates(s []candidate) {
	for len(s) > 16 {
		mid := partitionCandidates(s)
		if mid < len(s)-mid-1 {
			sortCandidates(s[:mid])
			s = s[mid+1:]
		} else {
			sortCandidates(s[mid+1:])
			s = s[:mid]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && candLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// partitionCandidates partitions s around a median-of-three pivot and
// returns the pivot's final index.
//
//adhoc:hotpath
func partitionCandidates(s []candidate) int {
	hi := len(s) - 1
	m := hi / 2
	if candLess(s[m], s[0]) {
		s[m], s[0] = s[0], s[m]
	}
	if candLess(s[hi], s[0]) {
		s[hi], s[0] = s[0], s[hi]
	}
	if candLess(s[hi], s[m]) {
		s[hi], s[m] = s[m], s[hi]
	}
	s[m], s[hi-1] = s[hi-1], s[m] // stash pivot at hi-1
	pivot := s[hi-1]
	i := 0
	for j := 1; j < hi-1; j++ {
		if candLess(s[j], pivot) {
			i++
			s[i], s[j] = s[j], s[i]
		}
	}
	i++
	s[i], s[hi-1] = s[hi-1], s[i]
	return i
}

// filterKruskalCutoff is the batch length at or below which filterKruskal
// stops partitioning and sorts: a partition pass plus a filter pass cost
// more than the sort they save on short batches.
const filterKruskalCutoff = 256

// filterKruskal replays a candidate batch through Kruskal's union-find in
// strict candLess order, appending every accepted edge to ws.edges, and
// reports whether the forest became a single tree (the replay stops there).
// It is the filter-Kruskal of Osipov, Sanders and Singler (ALENEX 2009):
// partition around a pivot, replay the lighter side and then the pivot,
// drop the heavier candidates whose endpoints are already joined, and go on
// with the rest. Every candidate it drops is one Kruskal would reject —
// components only grow — and the sides are replayed in order, so the
// accepted edges are exactly those of sorting the whole batch first. Past
// depth partition levels the batch is sorted instead, which bounds the
// recursion (only the lighter side recurses) at O(log n) frames.
//
//adhoc:hotpath
func (ws *Workspace) filterKruskal(s []candidate, depth int) bool {
	for len(s) > filterKruskalCutoff && depth > 0 {
		depth--
		mid := partitionCandidates(s)
		if ws.filterKruskal(s[:mid], depth) || ws.accept(s[mid]) {
			return true
		}
		heavy := s[mid+1:]
		k := 0
		for _, c := range heavy {
			if ws.uf.Find(c.i) != ws.uf.Find(c.j) {
				heavy[k] = c
				k++
			}
		}
		s = heavy[:k]
	}
	sortCandidates(s)
	for _, c := range s {
		if ws.accept(c) {
			return true
		}
	}
	return false
}

// accept offers one candidate to Kruskal, appending it to the tree when it
// joins two components, and reports whether the tree is complete.
func (ws *Workspace) accept(c candidate) bool {
	if !ws.uf.Union(c.i, c.j) {
		return false
	}
	ws.edges = append(ws.edges, Edge{I: c.i, J: c.j, D: thresholdRadius(c.d2)})
	return ws.uf.Count() == 1
}

// labelRoots sets ws.labels[i] to the union-find root of point i for the
// first n points.
func (ws *Workspace) labelRoots(n int) {
	ws.labels = grow(ws.labels, n)
	for i := range ws.labels {
		ws.labels[i] = ws.uf.Find(int32(i))
	}
}

// outsiderPairs is the grid annulus round once one component holds more
// than half the points: ws.labels holds every point's root, and only the
// points outside the largest component are scanned, each over its whole
// 3^d cell neighborhood. Every pair that can still become a tree edge has
// an endpoint outside the largest component, and ws.outsiderVisitor keeps
// the same pairs, (min, max)-ordered, that ForEachPairWithin and
// ws.batchVisitor keep (see GeoMST).
//
//adhoc:hotpath
func (ws *Workspace) outsiderPairs(r float64) {
	big := ws.uf.largestRoot
	for i, l := range ws.labels {
		if l != big {
			ws.ix.ForEachNear(int32(i), r, ws.outsiderVisitor)
		}
	}
}

// GeoMST computes the Euclidean minimum spanning tree of the points with a
// grid-accelerated filtered Kruskal, near-linear in practice for the uniform
// and mobility-evolved placements the simulator produces, against O(n^2) for
// the dense Prim. Edge weights are threshold radii exactly as in PrimMST,
// and the two agree on every input: the weight multiset of a minimum
// spanning tree is unique, so the connectivity profile derived from either
// tree is identical (cross-validated in the tests).
//
// The algorithm expands a search radius from the mean point spacing (the
// nearest-neighbor scale), doubling it until the tree completes. Round k
// hashes the points into a cell grid sized to r_k and enumerates only the
// pairs in the annulus (r_{k-1}, r_k] whose endpoints lie in different
// components; the surviving candidates are replayed through a
// filter-Kruskal in strict (d2, i, j) order. Once one component holds more
// than half the points, a round scans only the points outside it, since
// every remaining candidate has such an endpoint. Annuli are disjoint and
// processed in increasing order, so the replay sees every relevant pair
// exactly once, in globally sorted order — an exact Kruskal, returning the
// edges in that order. A late round costs O(n) plus the outsiders'
// neighborhoods, not the pairs within its radius. For n below
// geoMSTDenseCutoff it falls back to the dense Prim, which is faster there.
//
// GeoMST panics when a point coordinate is NaN or infinite (the bounding
// extent is then not finite), since no radius can connect such a point.
func GeoMST(pts []geom.Point, dim int) []Edge {
	ws := AcquireWorkspace()
	edges := slices.Clone(ws.GeoMST(pts, dim))
	ReleaseWorkspace(ws)
	return edges
}

// GeoMST is the workspace form of the package-level GeoMST: all scratch
// comes from the workspace and the returned edge slice is transient
// (overwritten by the next MST or profile call on this workspace).
func (ws *Workspace) GeoMST(pts []geom.Point, dim int) []Edge {
	n := len(pts)
	ws.edges = ws.edges[:0]
	if n < 2 {
		return nil
	}
	if n <= geoMSTDenseCutoff {
		ws.inTree = grow(ws.inTree, n)
		ws.bestDist = grow(ws.bestDist, n)
		ws.bestFrom = grow(ws.bestFrom, n)
		ws.dist2 = grow(ws.dist2, n)
		ws.edges = primMSTInto(pts, ws.inTree, ws.bestDist, ws.bestFrom, ws.dist2, ws.edges)
		return ws.edges
	}

	extent, dims := spatial.BoundingExtent(pts)
	if math.IsNaN(extent) || math.IsInf(extent, 0) {
		panic(fmt.Sprintf("graph: GeoMST over %d points with a non-finite bounding extent %v (NaN or infinite coordinates)", n, extent))
	}
	if extent == 0 {
		// All points coincident: the MST is a star of zero-weight edges.
		for i := 1; i < n; i++ {
			ws.edges = append(ws.edges, Edge{I: 0, J: int32(i), D: 0})
		}
		return ws.edges
	}
	// The mean nearest-neighbor scale of the placement: most points see
	// their closest neighbor within a small multiple of it, so the first
	// annuli already resolve the bulk of the tree.
	r := extent / math.Pow(float64(n), 1/float64(dims))

	ws.uf.Reset(n)
	if ws.batchVisitor == nil {
		ws.batchVisitor = func(i, j int, d2 float64) {
			if d2 <= ws.batchPrevR2 {
				return // already processed in an earlier annulus
			}
			a, b := int32(i), int32(j)
			if ws.uf.Find(a) == ws.uf.Find(b) {
				return // can never become a tree edge
			}
			ws.cand = append(ws.cand, candidate{d2: d2, i: a, j: b})
		}
		// The directed outsider scan sees a pair of two outsiders from both
		// ends; only the smaller index's scan keeps it. A pair with one end
		// in the largest component is seen once, from the outsider.
		ws.outsiderVisitor = func(i, j int, d2 float64) {
			if d2 <= ws.batchPrevR2 {
				return
			}
			lj := ws.labels[j]
			if lj == ws.labels[i] {
				return
			}
			if j < i {
				if lj != ws.uf.largestRoot {
					return
				}
				i, j = j, i
			}
			ws.cand = append(ws.cand, candidate{d2: d2, i: int32(i), j: int32(j)})
		}
	}

	// The backend is resolved once per MST at the starting radius. The k-d
	// tree is radius-free — built once here — and its rounds use
	// MinPairsByLabel: only the minimal candidate per component pair inside
	// the annulus, which is exactly the subset of the full enumeration that
	// Kruskal can ever accept (every other candidate between the same
	// components sorts after that minimum and finds its endpoints already
	// united). The grid path enumerates every cross-component annulus pair
	// (from the outsiders only, once a giant component exists). Both feed
	// the replay the same accepted-edge sequence, so the backend cannot
	// change the tree — it removes the clustered placements' quadratic trap,
	// where bridging rounds between k-point islands enumerate and sort k^2
	// cross pairs to use one.
	useTree := ws.resolveBackend(pts, dim, r) == spatial.BackendKDTree
	if useTree {
		ws.kd.Rebuild(pts, dim)
		// Start the rounds well below the global mean spacing: the tree is
		// picked for placements whose dense regions sit far above the global
		// density, and rounds only dedup candidates between components that
		// already exist — entering a dense region at its own spacing lets
		// its components coalesce in cheap small annuli before the annulus
		// that covers the whole region arrives. Any starting radius is
		// exact (the annuli stay disjoint and increasing); this one only
		// adds three near-empty rounds when the placement is uniform after
		// all. The grid keeps the global scale, where its cells are sized.
		r /= 8
	}

	// The first round must admit d2 == 0 (coincident points), so the
	// initial exclusion bound sits below every squared distance.
	prevR2 := -1.0
	for ws.uf.Count() > 1 {
		ws.cand = ws.cand[:0]
		ws.batchPrevR2 = prevR2
		switch {
		case useTree:
			ws.labelRoots(n)
			ws.kd.MinPairsByLabel(ws.labels, prevR2, r, ws.batchVisitor)
		case 2*(n-ws.uf.Largest()) < n:
			// A full scan visits about half the 3^d stencil per point, an
			// outsider scan the whole stencil per outsider: the outsiders
			// win once they are fewer than half the points.
			ws.ix.Rebuild(pts, dim, r)
			ws.labelRoots(n)
			ws.outsiderPairs(r)
		default:
			ws.ix.Rebuild(pts, dim, r)
			ws.ix.ForEachPairWithin(r, ws.batchVisitor)
		}
		ws.filterKruskal(ws.cand, 2*bits.Len(uint(len(ws.cand))))
		// The annulus filter reuses the exact r*r the grid compared against,
		// so the next round's exclusion is the precise complement of this
		// round's inclusion.
		prevR2 = r * r
		r *= 2
	}
	return ws.edges
}
