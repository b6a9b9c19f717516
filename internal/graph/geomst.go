package graph

import (
	"math"
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
// pairs in the annulus (r_{k-1}, r_k], discarding same-component pairs on
// the fly; the surviving candidates are sorted and replayed through Kruskal.
// Annuli are disjoint and processed in increasing order, so the replay sees
// every relevant pair exactly once, in globally sorted order — an exact
// Kruskal whose total work is proportional to the pairs within the final
// radius, not to pairs-times-rounds. For n below geoMSTDenseCutoff it falls
// back to the dense Prim, which is faster there.
func GeoMST(pts []geom.Point, dim int) []Edge {
	ws := workspacePool.Get().(*Workspace)
	edges := slices.Clone(ws.GeoMST(pts, dim))
	workspacePool.Put(ws)
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
	}

	// The backend is resolved once per MST at the starting radius. The k-d
	// tree is radius-free — built once here — and its rounds use
	// MinPairsByLabel: only the minimal candidate per component pair inside
	// the annulus, which is exactly the subset of the full enumeration that
	// Kruskal can ever accept (every other candidate between the same
	// components sorts after that minimum and finds its endpoints already
	// united). The grid path keeps the full annulus enumeration. Both feed
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
		if useTree {
			ws.labels = grow(ws.labels, n)
			for i := range ws.labels {
				ws.labels[i] = ws.uf.Find(int32(i))
			}
			ws.kd.MinPairsByLabel(ws.labels, prevR2, r, ws.batchVisitor)
		} else {
			ws.ix.Rebuild(pts, dim, r)
			ws.ix.ForEachPairWithin(r, ws.batchVisitor)
		}
		sortCandidates(ws.cand)
		for _, c := range ws.cand {
			if ws.uf.Union(c.i, c.j) {
				ws.edges = append(ws.edges, Edge{I: c.i, J: c.j, D: thresholdRadius(c.d2)})
				if ws.uf.Count() == 1 {
					break
				}
			}
		}
		// The annulus filter reuses the exact r*r the grid compared against,
		// so the next round's exclusion is the precise complement of this
		// round's inclusion.
		prevR2 = r * r
		r *= 2
	}
	return ws.edges
}
