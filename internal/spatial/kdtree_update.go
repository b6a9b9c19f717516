package spatial

import (
	"adhocnet/internal/geom"
)

// This file is the k-d tree half of the kinetic pipeline (DESIGN.md "Kinetic
// structures"). A mobility step mutates a small subset of the points in place;
// instead of re-splitting the whole tree, Update walks each moved point's
// root-to-leaf path and widens the boxes along it to cover the new position.
// The repair is expand-only: boxes stay supersets of their subtree, so every
// bound the queries prune on (boxMinDist2 can only shrink, boxMaxDist2 and
// pointBoxMaxDist2 can only grow) remains conservative and no qualifying
// pair is ever dropped. Looser boxes weaken pruning, never correctness —
// query results stay bit-identical to a fresh Rebuild, because pair
// inclusion tests exact geom.Dist2 values either way. The staleness
// counters below bound how loose the boxes can get before a full Rebuild
// restores tight fits.

// kdStaleRebuildFactor triggers a full Rebuild once the cumulative moved
// count since the last build exceeds this multiple of n: by then the average
// box has been widened about once per point and pruning quality approaches
// the grid's worst case.
const kdStaleRebuildFactor = 1

// Update repairs the tree in place after the points listed in moved (a
// strictly ascending index set) changed position IN THE SAME SLICE the tree
// was last built over. Each moved point keeps its slot in the idx
// permutation; only the bounding boxes on its root-to-leaf path are expanded
// to cover the new position. Falls back to a full Rebuild when the tree was
// never built over this slice length, when a single step moves more than
// updateDirtyFraction of the points, or when cumulative motion since the
// last build exceeds kdStaleRebuildFactor times n (loose boxes cost query
// time, never correctness).
func (t *KDTree) Update(moved []int32) {
	t.stats.Updates++
	n := len(t.pts)
	if t.root < 0 || len(t.pos) != n {
		t.stats.UpdateRebuilds++
		t.Rebuild(t.pts, 3)
		return
	}
	t.staleMoves += len(moved)
	if float64(len(moved)) > updateDirtyFraction*float64(n) ||
		t.staleMoves > kdStaleRebuildFactor*n {
		t.stats.UpdateRebuilds++
		t.Rebuild(t.pts, 3)
		return
	}
	for _, i := range moved {
		t.expandPath(t.pos[i], t.pts[i])
	}
}

// expandPath widens every box on the root-to-leaf path owning slot so it
// covers p. The left child always owns idx[lo:mid) — the slot range is fixed
// at build time — so the descent is by slot, not by coordinate, and finds the
// leaf that actually stores the point regardless of where it moved.
func (t *KDTree) expandPath(slot int32, p geom.Point) {
	node := t.root
	for node >= 0 {
		nd := &t.nodes[node]
		if p.X < nd.minX {
			nd.minX = p.X
		}
		if p.X > nd.maxX {
			nd.maxX = p.X
		}
		if p.Y < nd.minY {
			nd.minY = p.Y
		}
		if p.Y > nd.maxY {
			nd.maxY = p.Y
		}
		if p.Z < nd.minZ {
			nd.minZ = p.Z
		}
		if p.Z > nd.maxZ {
			nd.maxZ = p.Z
		}
		if nd.left < 0 {
			return
		}
		if slot < t.nodes[nd.left].hi {
			node = nd.left
		} else {
			node = nd.right
		}
	}
}

// ForEachNearInAnnulus calls visit once for every point j != i with
// lo2 < d2 <= r*r, where d2 is the squared distance from point i. Like
// Index.ForEachNear it is a directed single-point query — visit receives
// (i, j, d2) with i always the query point, not the i < j pair convention.
// Pass lo2 < 0 for a plain within-r query including d2 == 0. The kinetic
// point-graph repair issues it per moved node. Subtrees whose box lies
// entirely beyond r or entirely below the annulus floor are skipped.
//
//adhoc:hotpath
func (t *KDTree) ForEachNearInAnnulus(i int32, lo2, r float64, visit PairVisitor) {
	t.stats.NearQueries++
	if r < 0 || t.root < 0 {
		return
	}
	t.nearAnnulus(t.root, i, t.pts[i], lo2, r*r, visit)
}

// nearAnnulus recursively emits the annulus neighbors of p (= pts[skip]).
//
//adhoc:hotpath
func (t *KDTree) nearAnnulus(node, skip int32, p geom.Point, lo2, r2 float64, visit PairVisitor) {
	if t.pointBoxDist2(p, node) > r2 || t.pointBoxMaxDist2(p, node) <= lo2 {
		return
	}
	nd := &t.nodes[node]
	if nd.left < 0 {
		for x := nd.lo; x < nd.hi; x++ {
			j := t.idx[x]
			if j == skip {
				continue
			}
			d2 := geom.Dist2(p, t.pts[j])
			if d2 <= r2 && d2 > lo2 {
				visit(int(skip), int(j), d2)
			}
		}
		return
	}
	t.nearAnnulus(nd.left, skip, p, lo2, r2, visit)
	t.nearAnnulus(nd.right, skip, p, lo2, r2, visit)
}

// pointBoxMaxDist2 returns a rounding-monotone upper bound on the squared
// distance from p to any point of the node's box, the single-point analogue
// of boxMaxDist2: every indexed point's Dist2 from p is <= this bound, so
// pruning a subtree whose bound sits below the annulus floor never drops a
// qualifying neighbor.
//
//adhoc:hotpath
func (t *KDTree) pointBoxMaxDist2(p geom.Point, node int32) float64 {
	nd := &t.nodes[node]
	dx := axisSpan(p.X, p.X, nd.minX, nd.maxX)
	dy := axisSpan(p.Y, p.Y, nd.minY, nd.maxY)
	dz := axisSpan(p.Z, p.Z, nd.minZ, nd.maxZ)
	return geom.SumSq(dx, dy, dz)
}
