package spatial

import (
	"adhocnet/internal/geom"
)

// This file is the spatial half of the kinetic MST repair (DESIGN.md
// "Kinetic MST repair"). A mobility step mutates a small subset of the points
// in place; instead of re-splitting the whole tree, Update walks each moved
// point's root-to-leaf path and widens the boxes along it to cover the new
// position. The repair is expand-only: boxes stay supersets of their
// subtree, so every bound the queries prune on (boxMinDist2 can only shrink,
// boxMaxDist2 can only grow) remains conservative and no qualifying pair is
// ever dropped. Looser boxes weaken pruning, never correctness —
// query results stay bit-identical to a fresh Rebuild, because pair
// inclusion tests exact geom.Dist2 values either way. The staleness
// counters below bound how loose the boxes can get before a full Rebuild
// restores tight fits.

// updateDirtyFraction is the moved fraction beyond which Update abandons the
// incremental path and rebuilds: widening the paths of more than half the
// points costs about as much as a fresh build and leaves boxes loose enough
// to cost the queries more than the build saved.
const updateDirtyFraction = 0.5

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
