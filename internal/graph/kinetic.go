package graph

import (
	"math"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
)

// Kinetic snapshot evaluation (DESIGN.md "Kinetic MST repair"): when
// consecutive snapshots are mobility steps of the same point slice, the
// workspace can repair its previous MST instead of recomputing it. The
// caller arms the mode with SetKinetic and then calls ProfileKinetic per
// step, passing the step's moved set (strictly ascending indices of the
// points that changed position). A nil moved set means "no displacement
// information" — the call runs the plain rebuild path and, when possible,
// primes the tree cache so the NEXT step can repair.
//
// Results are bit-identical to the rebuild path by construction, not by
// tolerance: ProfileKinetic re-derives the exact strict-order MST by running
// GeoMST's own annulus Kruskal (mstRounds) with the previous tree's
// surviving edges as a kept stream. Kruskal with the (d2, i, j) total order
// has a unique answer, and the kinetic candidate set provably contains it
// (see kineticMST), so the repaired tree is the same edge list in the same
// order as GeoMST's, and the replayed profile is bitwise identical.
//
// When the step is too dirty (moved fraction above kineticDirtyFraction),
// the placement degenerate, or the cache cold, ProfileKinetic falls back to
// the plain path and re-primes. Falling back is always safe: it is the
// rebuild path.

// kineticDirtyFraction is the moved fraction beyond which repairing costs
// more than rebuilding: the MST repair work scales with the moved count
// (fragments to bridge, box-loosened pruning), and past ~a fifth of the
// points the annulus rounds re-enumerate most of what a fresh build would.
const kineticDirtyFraction = 0.2

// kinetic is the workspace's incremental-update state: the previous step's
// MST, the slice identity it was computed over, and the scratch the repair
// needs. Inert until SetKinetic(true).
type kinetic struct {
	armed bool

	// pts is the point slice the tree cache was primed over. Kinetic
	// repair requires the SAME backing slice (mobility mutates positions in
	// place); a different slice means the cache describes unrelated points
	// and the call re-primes. Checked by identity, not content.
	pts []geom.Point

	// MST cache: the previous step's tree as (d2, i, j) candidates in
	// strict sorted order (which is GeoMST's acceptance order).
	treeOK bool
	tree   []candidate
	kept   []candidate // the repair's kept forest, sorted (kineticMST)

	// mark[i] reports whether point i moved this step. All-false between
	// calls; the repair sets and clears only its moved entries.
	mark []bool

	// frag[i] is the kept-forest component of point i for the current
	// repair (a moved point is its own fragment) — the static crossing
	// partition of the MST repair's candidate queries.
	frag []int32
}

// SetKinetic arms (or disarms) kinetic evaluation on this workspace and
// resets the tree cache to cold. Callers arm once per trajectory iteration:
// the first ProfileKinetic primes, subsequent ones repair. Arming changes
// nothing else — PointGraph and the other entry points always rebuild.
func (ws *Workspace) SetKinetic(on bool) {
	k := &ws.kin
	k.armed = on
	k.treeOK = false
	k.pts = nil
	// Restore the all-false mark invariant in case a previous user of this
	// workspace was abandoned mid-repair (panic isolation).
	for i := range k.mark {
		k.mark[i] = false
	}
}

// Kinetic reports whether kinetic evaluation is armed.
func (ws *Workspace) Kinetic() bool { return ws.kin.armed }

// samePts reports whether pts is the identical backing slice the tree
// cache was primed over.
func (k *kinetic) samePts(pts []geom.Point) bool {
	return len(pts) > 0 && len(k.pts) == len(pts) && &k.pts[0] == &pts[0]
}

// ProfileKinetic is Profile with incremental repair across mobility steps.
// moved lists the points displaced since the previous call on this
// workspace (strictly ascending); nil means no displacement information
// (trajectory start, or a caller without a Mover), which evaluates the plain
// path and primes the tree cache. The returned profile is transient, exactly
// as for Profile, and bitwise identical to what Profile would return.
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
		k.pts = pts
		k.keepTree(pts, edges)
		// The repair queries the k-d tree regardless of the workspace's
		// spatial policy (the grid is rebuilt per radius, so it has nothing
		// to repair); build it once here, Update keeps it current.
		ws.kd.Rebuild(pts, dim)
		k.treeOK = true
	}
	return ws.replayProfile(n, edges)
}

// keepTree caches edges, a strict-order MST over pts, as the tree the next
// repair continues from. Edge weights are threshold radii and the repair
// orders by squared distance, so each edge's exact d2 is recovered from the
// coordinates (the same geom.Dist2 value the queries computed).
func (k *kinetic) keepTree(pts []geom.Point, edges []Edge) {
	k.tree = k.tree[:0]
	for _, e := range edges {
		k.tree = append(k.tree, candidate{d2: geom.Dist2(pts[e.I], pts[e.J]), i: e.I, j: e.J})
	}
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
//  2. Run GeoMST's annulus Kruskal (mstRounds) on the k-d tree with the
//     kept forest as its kept stream and frag as the crossing partition:
//     each round adds the per-component-pair minima among fragment-crossing
//     pairs, which is all Kruskal can accept (see GeoMST). Kruskal with the
//     strict (d2, i, j) order over a superset of the MST accepts exactly
//     the MST, in sorted order — the same edges in the same order as a
//     from-scratch GeoMST, so the replayed profile is bitwise identical.
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
	k.kept = k.kept[:0]
	for _, c := range k.tree {
		if k.mark[c.i] || k.mark[c.j] {
			continue
		}
		ws.uf.Union(c.i, c.j)
		k.kept = append(k.kept, c)
	}
	k.frag = grow(k.frag, n)
	for i := range k.frag {
		k.frag[i] = ws.uf.Find(int32(i))
	}
	ws.stats.MSTKeptEdges += uint64(len(k.kept))
	ws.stats.MSTFragments += uint64(ws.uf.Count())
	for _, m := range moved {
		k.mark[m] = false
	}

	// Phase 2, starting at the cached tree's median edge length, the scale
	// where tree edges live: round one coalesces half the structure; on
	// clustered placements dense regions still merge before a ring wide
	// enough to flood them with cross pairs arrives, and on uniform ones
	// the sub-spacing rounds that would emit nothing are skipped.
	r0 := math.Sqrt(k.tree[len(k.tree)/2].d2)
	if r0 == 0 {
		// Degenerate cache (coincident points): fall back to the mean
		// spacing so the doubling still terminates.
		r0 = extent / math.Pow(float64(n), 1/float64(dims)) / 8
	}
	edges := ws.mstRounds(pts, 0, r0, true, k.kept, k.frag)
	k.keepTree(pts, edges)
	return edges, true
}

// PointGraphKinetic is PointGraph; moved is ignored, because the
// communication graph is rebuilt per snapshot. It stays only because the
// benchmark harness (cmd/adhocbench/replay.go) calls it.
func (ws *Workspace) PointGraphKinetic(pts []geom.Point, dim int, r float64, _ []int32) *Adjacency {
	return ws.PointGraph(pts, dim, r)
}
