package graph

import (
	"math"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
)

// Kinetic snapshot evaluation (DESIGN.md "Kinetic structures"): when
// consecutive snapshots are mobility steps of the same point slice, the
// workspace can repair its previous answer instead of recomputing it. The
// caller arms the mode with SetKinetic and then calls ProfileKinetic /
// PointGraphKinetic per step, passing the step's moved set (strictly
// ascending indices of the points that changed position). A nil moved set
// means "no displacement information" — the call runs the plain rebuild path
// and, when possible, primes the kinetic caches so the NEXT step can repair.
//
// Results are bit-identical to the rebuild path by construction, not by
// tolerance:
//
//   - ProfileKinetic re-derives the exact strict-order MST. Kruskal with the
//     (d2, i, j) total order has a unique answer, and the kinetic candidate
//     set provably contains it (see kineticMST), so the repaired tree is the
//     same edge list in the same order as GeoMST's, and the replayed profile
//     is bitwise identical.
//   - PointGraphKinetic re-derives the exact edge SET of the communication
//     graph (kept unmoved-unmoved edges are unchanged by definition; edges
//     incident to moved points are re-enumerated from the spatial index with
//     the same d2 <= r*r test). Edge order differs from the rebuild path,
//     which is invisible to every graph property the simulator derives
//     (components, degrees, hops, articulation) — those are set functions of
//     the adjacency, cross-checked in the fuzz target.
//
// When the step is too dirty (moved fraction above kineticDirtyFraction),
// the placement degenerate, or the caches cold, both entry points fall back
// to the plain path and re-prime. Falling back is always safe: it is the
// rebuild path.

// kineticDirtyFraction is the moved fraction beyond which repairing costs
// more than rebuilding: the MST repair work scales with the moved count
// (star queries, box-loosened pruning), and past ~a fifth of the points the
// annulus rounds re-enumerate most of what a fresh build would.
const kineticDirtyFraction = 0.2

// kinetic is the workspace's incremental-update state: the previous step's
// MST and point graph, the slice identity they were computed over, and the
// scratch the repair passes need. Inert until SetKinetic(true).
type kinetic struct {
	armed bool

	// pts is the point slice the caches below were primed over. Kinetic
	// repair requires the SAME backing slice (mobility mutates positions in
	// place); a different slice means the caches describe unrelated points
	// and the call re-primes. Checked by identity, not content.
	pts []geom.Point

	// MST cache: the previous step's tree as (d2, i, j) candidates in
	// strict sorted order (which is GeoMST's acceptance order).
	treeOK   bool
	tree     []candidate
	treeNext []candidate
	mstU     []candidate // MST over the unmoved points, phase-2 scratch

	// Point-graph cache: the previous step's edge list at radius graphR,
	// discovered through graphBackend (resolved once at prime time and kept
	// for the iteration — the backend changes performance only, never the
	// edge set).
	graphOK      bool
	graphR       float64
	graphBackend spatial.Backend
	graph        []Edge
	graphNext    []Edge

	// mark[i] reports whether point i moved this step. All-false between
	// calls; each repair sets and clears only its moved entries.
	mark []bool

	// frag[i] is the kept-forest component of point i for the current
	// repair (a moved point is its own fragment) — the static crossing
	// partition of the MST repair's candidate queries.
	frag []int32

	// Pre-bound visitors so the per-step queries allocate no closures.
	minVisitor  spatial.PairVisitor // MST annulus minima collector (phases 2 and 3)
	nearVisitor spatial.PairVisitor // point-graph moved-star collector
}

// SetKinetic arms (or disarms) kinetic evaluation on this workspace and
// resets all kinetic caches to cold. Callers arm once per trajectory
// iteration: the first evaluation primes, subsequent ones repair.
func (ws *Workspace) SetKinetic(on bool) {
	k := &ws.kin
	k.armed = on
	k.treeOK = false
	k.graphOK = false
	k.pts = nil
	// Restore the all-false mark invariant in case a previous user of this
	// workspace was abandoned mid-repair (panic isolation).
	for i := range k.mark {
		k.mark[i] = false
	}
}

// Kinetic reports whether kinetic evaluation is armed.
func (ws *Workspace) Kinetic() bool { return ws.kin.armed }

// samePts reports whether pts is the identical backing slice the kinetic
// caches were primed over.
func (k *kinetic) samePts(pts []geom.Point) bool {
	return len(pts) > 0 && len(k.pts) == len(pts) && &k.pts[0] == &pts[0]
}

// rebind records pts as the cache slice, invalidating every cache primed
// over a different slice first.
func (k *kinetic) rebind(pts []geom.Point) {
	if !k.samePts(pts) {
		k.treeOK = false
		k.graphOK = false
	}
	k.pts = pts
}

// ProfileKinetic is Profile with incremental repair across mobility steps.
// moved lists the points displaced since the previous call on this
// workspace (strictly ascending); nil means no displacement information
// (trajectory start, or a caller without a Mover), which evaluates the plain
// path and primes the caches. The returned profile is transient, exactly as
// for Profile, and bitwise identical to what Profile would return.
func (ws *Workspace) ProfileKinetic(pts []geom.Point, dim int, moved []int32) *Profile {
	k := &ws.kin
	n := len(pts)
	if !k.armed || dim == 1 {
		// The 1-D profile is already O(n log n) sorted gaps; no repair path.
		return ws.Profile(pts, dim)
	}
	if moved != nil && k.treeOK && k.samePts(pts) {
		if float64(len(moved)) <= kineticDirtyFraction*float64(n) {
			if edges, ok := ws.kineticMST(pts, moved); ok {
				ws.stats.MSTRepairs++
				ws.stats.MovedPoints += uint64(len(moved))
				return ws.replayProfile(n, edges)
			}
		} else {
			ws.stats.MSTDirtyFallbacks++
		}
	}
	ws.stats.MSTRebuilds++
	// Plain path; prime the tree cache whenever GeoMST ran its annulus
	// Kruskal (n above the dense cutoff, non-degenerate extent) — only that
	// path emits the strict-order edge list the repair continues from.
	edges := ws.GeoMST(pts, dim)
	k.treeOK = false
	if extent, _ := spatial.BoundingExtent(pts); n > geoMSTDenseCutoff && extent > 0 {
		k.rebind(pts)
		k.tree = k.tree[:0]
		for _, e := range edges {
			// Edge weights are threshold radii; the repair orders by squared
			// distance, so recover each edge's exact d2 from the coordinates.
			k.tree = append(k.tree, candidate{d2: geom.Dist2(pts[e.I], pts[e.J]), i: e.I, j: e.J})
		}
		// The repair queries the k-d tree regardless of the workspace's
		// spatial policy (the grid is rebuilt per radius, so it has nothing
		// to repair); build it once here, Update keeps it current.
		ws.kd.Rebuild(pts, dim)
		k.treeOK = true
	}
	return ws.replayProfile(n, edges)
}

// kineticMST repairs the cached strict-order MST after the listed points
// moved, returning the new tree in GeoMST's exact edge order (ok=false falls
// back to the plain path). Two phases:
//
//  1. Keep: tree edges with both endpoints unmoved keep their exact d2 (the
//     positions are bit-identical). They form the KEPT FOREST, whose
//     components are the step's frag partition (a moved point, touched by no
//     kept edge, is its own fragment). Every edge of the new MST that is not
//     itself kept must CROSS fragments: a kept edge not in the new MST never
//     needs re-finding, and a non-kept pair inside one fragment still has
//     its old tree path intact — unmoved endpoints, unmoved interior, every
//     edge strictly smaller — so the cycle property certifies it non-minimal
//     in the new configuration too.
//
//  2. Re-run Kruskal over the full point set on a candidate set that
//     provably contains the new MST: the kept edges stream in sorted order
//     (they are a sorted subsequence of the cached tree), and each annulus
//     round adds the per-component-pair MINIMA among fragment-crossing pairs
//     (MinPairsByLabelCrossing, labels = the round-start components). A
//     crossing pair that is not its component pair's ring minimum is
//     replayed after that minimum and finds its endpoints already connected,
//     so it can never be accepted — the same redundancy argument
//     MinPairsByLabel rests on, and the reason a moved point inside a dense
//     cluster costs one candidate per neighbouring component instead of one
//     per neighbouring point. Kruskal with the strict (d2, i, j) order over
//     a superset of the MST accepts exactly the MST, in sorted order — the
//     same edges in the same order as a from-scratch GeoMST, which is what
//     makes the replayed profile bitwise identical.
func (ws *Workspace) kineticMST(pts []geom.Point, moved []int32) ([]Edge, bool) {
	n := len(pts)
	extent, dims := spatial.BoundingExtent(pts)
	if !(extent > 0) || math.IsInf(extent, 1) {
		// Degenerate placement, or a NaN/infinite coordinate that no ring
		// would ever admit: the plain path handles both (GeoMST panics on
		// the latter).
		return nil, false
	}
	k := &ws.kin
	ws.kd.Update(moved)
	k.mark = grow(k.mark, n)
	for _, m := range moved {
		k.mark[m] = true
	}

	// Phase 1: keep the still-valid tree edges (in sorted order, as a
	// subsequence of the sorted cached tree) and derive the frag partition.
	ws.uf.Reset(n)
	k.mstU = k.mstU[:0]
	for _, c := range k.tree {
		if k.mark[c.i] || k.mark[c.j] {
			continue
		}
		ws.uf.Union(c.i, c.j)
		k.mstU = append(k.mstU, c)
	}
	k.frag = grow(k.frag, n)
	for i := range k.frag {
		k.frag[i] = ws.uf.Find(int32(i))
	}
	ws.stats.MSTKeptEdges += uint64(len(k.mstU))
	ws.stats.MSTFragments += uint64(ws.uf.Count())

	// Phase 2: exact Kruskal over the kept stream plus the per-round
	// crossing minima, by expanding annuli so the candidate stream arrives
	// in sorted order. Any ring schedule is exact (the annuli stay disjoint
	// and increasing), so the schedule is a pure performance choice, and the
	// cached tree knows the right one: its median edge length is the scale
	// where tree edges actually live. Starting the first ring there makes
	// round one coalesce half the structure at once — on clustered
	// placements the median is the tiny intra-cluster spacing, so dense
	// regions still merge before a ring wide enough to flood them with
	// cross pairs arrives, while on uniform placements it skips the
	// sub-spacing rounds that traverse the whole tree to emit nothing.
	r0 := math.Sqrt(k.tree[len(k.tree)/2].d2)
	if r0 == 0 {
		// Degenerate cache (coincident points): fall back to the mean
		// spacing so the doubling still terminates.
		r0 = extent / math.Pow(float64(n), 1/float64(dims)) / 8
	}
	if k.minVisitor == nil {
		k.minVisitor = func(i, j int, d2 float64) {
			ws.cand = append(ws.cand, candidate{d2: d2, i: int32(i), j: int32(j)})
		}
	}
	ws.uf.Reset(n)
	ws.edges = ws.edges[:0]
	k.treeNext = k.treeNext[:0]
	cursor := 0
	prevR2 := -1.0 // admit d2 == 0 in the first round
	r := r0
	for ws.uf.Count() > 1 {
		r2 := r * r
		ws.cand = ws.cand[:0]
		for cursor < len(k.mstU) && k.mstU[cursor].d2 <= r2 {
			c := k.mstU[cursor]
			cursor++
			if ws.uf.Find(c.i) != ws.uf.Find(c.j) {
				ws.cand = append(ws.cand, c)
			}
		}
		ws.labelRoots(n)
		ws.kd.MinPairsByLabelCrossing(ws.labels, k.frag, prevR2, r, k.minVisitor)
		ws.stats.MSTRounds++
		ws.stats.MSTCandidates += uint64(len(ws.cand))
		sortCandidates(ws.cand)
		for _, c := range ws.cand {
			if ws.uf.Union(c.i, c.j) {
				ws.edges = append(ws.edges, Edge{I: c.i, J: c.j, D: thresholdRadius(c.d2)})
				k.treeNext = append(k.treeNext, c)
				if ws.uf.Count() == 1 {
					break
				}
			}
		}
		prevR2 = r2
		r *= 2
	}
	k.tree, k.treeNext = k.treeNext, k.tree
	for _, m := range moved {
		k.mark[m] = false
	}
	return ws.edges, true
}

// PointGraphKinetic is PointGraph with incremental repair across mobility
// steps: the semantics of moved are those of ProfileKinetic. The returned
// adjacency is transient and describes the identical edge set the rebuild
// path would produce (edge order differs; every derived graph property is
// order-independent).
func (ws *Workspace) PointGraphKinetic(pts []geom.Point, dim int, r float64, moved []int32) *Adjacency {
	k := &ws.kin
	n := len(pts)
	if k.armed && moved != nil && k.graphOK && k.samePts(pts) && r == k.graphR &&
		float64(len(moved)) <= kineticDirtyFraction*float64(n) {
		ws.stats.GraphRepairs++
		ws.stats.MovedPoints += uint64(len(moved))
		return ws.kineticPointGraph(n, r, moved)
	}
	if k.armed {
		ws.stats.GraphRebuilds++
	}
	a := ws.PointGraph(pts, dim, r)
	if k.armed {
		k.graphOK = false
		if r > 0 && n >= 2 {
			k.rebind(pts)
			k.graph = append(k.graph[:0], ws.edges...)
			k.graphR = r
			// Resolve the backend once, with the same deterministic choice
			// PointGraph just made, and keep it for the iteration.
			k.graphBackend = ws.resolveBackend(pts, dim, r)
			k.graphOK = true
		}
	}
	return a
}

// kineticPointGraph repairs the cached communication graph: edges between
// two unmoved points are unchanged by definition (both endpoints and the
// radius are bit-identical), every edge touching a moved point is discarded
// and re-discovered by a radius query around that point. A moved-moved pair
// appears in both endpoints' queries and is kept once, from the smaller
// index.
func (ws *Workspace) kineticPointGraph(n int, r float64, moved []int32) *Adjacency {
	k := &ws.kin
	if k.graphBackend == spatial.BackendKDTree {
		ws.kd.Update(moved)
	} else {
		ws.ix.Update(moved)
	}
	k.mark = grow(k.mark, n)
	for _, m := range moved {
		k.mark[m] = true
	}
	k.graphNext = k.graphNext[:0]
	for _, e := range k.graph {
		if !k.mark[e.I] && !k.mark[e.J] {
			k.graphNext = append(k.graphNext, e)
		}
	}
	if k.nearVisitor == nil {
		k.nearVisitor = func(i, j int, d2 float64) {
			kk := &ws.kin
			if kk.mark[j] && j < i {
				return
			}
			a, b := int32(i), int32(j)
			if b < a {
				a, b = b, a
			}
			kk.graphNext = append(kk.graphNext, Edge{I: a, J: b, D: math.Sqrt(d2)})
		}
	}
	for _, m := range moved {
		if k.graphBackend == spatial.BackendKDTree {
			ws.kd.ForEachNearInAnnulus(m, -1, r, k.nearVisitor)
		} else {
			ws.ix.ForEachNear(m, r, k.nearVisitor)
		}
	}
	k.graph, k.graphNext = k.graphNext, k.graph
	for _, m := range moved {
		k.mark[m] = false
	}
	return ws.buildAdjacency(n, k.graph)
}
