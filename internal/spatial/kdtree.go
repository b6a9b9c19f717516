package spatial

// A bounding-box k-d tree over a fixed point set, the adaptive complement of
// the uniform cell grid in spatial.go. The grid assumes roughly uniform
// density: its cell budget ties the cell side to the *global* point count, so
// a clustered placement packs hundreds of points into a handful of cells and
// every pair query degrades toward the dense scan (the measured ~50x gap of
// BenchmarkSnapshotClustered). The tree instead splits where the points are —
// each node stores the exact bounding box of its subtree — so query cost
// follows the local density, whatever the placement looks like.
//
// The tree serves the same query surface as the grid (ForEachPairWithin,
// NearestNeighborDistancesInto) plus an annulus query the grid cannot answer
// without widening its cells: the filtered-Kruskal MST's per-label-pair
// minimum query MinPairsByLabel (kdtree_minpairs.go), which prunes whole
// subtrees whose boxes lie entirely below the annulus floor.
// Results are bit-identical to the grid and the brute-force reference: pair
// inclusion uses the same geom.Dist2 values and the same `d2 <= r*r`
// comparison, and the box distance bounds are computed with the operation
// order of geom.Dist2, so floating-point rounding is monotone and pruning
// can never drop a qualifying pair (see boxMinDist2).
//
// Like the Index, a KDTree is reusable storage: Rebuild re-indexes a new
// point set into the existing backing arrays, so steady-state rebuilds
// allocate nothing.

import (
	"math"

	"adhocnet/internal/geom"
)

// kdLeafSize is the subtree size below which splitting stops. Leaves pay an
// O(k^2) scan against a sibling leaf, internal nodes pay box tests and
// recursion — and for MinPairsByLabel, smaller leaves also mean subtrees
// turn single-component sooner, unlocking the pure-pair pruning earlier in
// the MST rounds. 8 wins on the clustered snapshot benchmarks.
const kdLeafSize = 8

// kdNode is one tree node: the exact bounding box of its points, the range
// it owns in the index permutation, and its children (-1 for leaves).
type kdNode struct {
	minX, minY, minZ float64
	maxX, maxY, maxZ float64
	lo, hi           int32 // idx[lo:hi] are the subtree's point indices
	left, right      int32 // children; < 0 for a leaf
}

// KDTree is a bounding-box k-d tree in flat storage: a permutation of point
// indices plus a node array, rebuilt in place per snapshot.
type KDTree struct {
	pts   []geom.Point
	idx   []int32
	nodes []kdNode
	root  int32
	mp    minPairsScratch // MinPairsByLabel state (kdtree_minpairs.go)

	// Kinetic-repair state (kdtree_update.go): the inverse of idx (point
	// index -> slot) and the cumulative moved count since the last full
	// Rebuild, which triggers the staleness rebuild.
	pos        []int32
	staleMoves int

	stats Stats // operation counters, drained by TakeStats
}

// NewKDTree builds a tree over pts. The dim argument is retained for API
// symmetry with NewIndex; the tree is derived from the point coordinates, so
// it is correct for every dimension.
func NewKDTree(pts []geom.Point, dim int) *KDTree {
	t := &KDTree{}
	t.Rebuild(pts, dim)
	return t
}

// Rebuild re-indexes pts, reusing the tree's backing arrays. It is the
// zero-allocation path for workloads that index one snapshot after another.
// Unlike the grid the tree is radius-free: one build answers pair queries at
// every radius.
func (t *KDTree) Rebuild(pts []geom.Point, dim int) {
	_ = dim
	t.stats.Rebuilds++
	t.pts = pts
	n := len(pts)
	t.idx = growInt32(t.idx, n)
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.nodes = t.nodes[:0]
	t.staleMoves = 0
	if n == 0 {
		t.root = -1
		t.pos = t.pos[:0]
		return
	}
	t.root = t.build(0, int32(n))
	t.pos = growInt32(t.pos, n)
	for slot, i := range t.idx {
		t.pos[i] = int32(slot)
	}
}

// build creates the subtree over idx[lo:hi] and returns its node id. Splits
// are positional medians along the widest box axis, so the tree is balanced
// regardless of the coordinate distribution; a subtree whose box has zero
// extent (all points coincident) becomes a leaf outright, since no split can
// separate it.
func (t *KDTree) build(lo, hi int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{})
	minP, maxP := subsetBounds(t.idx[lo:hi], t.pts)
	nd := kdNode{
		minX: minP.X, minY: minP.Y, minZ: minP.Z,
		maxX: maxP.X, maxY: maxP.Y, maxZ: maxP.Z,
		lo: lo, hi: hi, left: -1, right: -1,
	}
	if hi-lo > kdLeafSize {
		if axis, extent := widestAxis(minP, maxP); extent > 0 {
			mid := lo + (hi-lo)/2
			t.selectNth(lo, hi, mid, axis)
			// Children are appended after this node; assign nd to the array
			// only once both exist (append may move the backing array).
			nd.left = t.build(lo, mid)
			nd.right = t.build(mid, hi)
		}
	}
	t.nodes[id] = nd
	return id
}

// subsetBounds is the componentwise bounding box of the points selected by
// idx (which must be non-empty).
func subsetBounds(idx []int32, pts []geom.Point) (minP, maxP geom.Point) {
	minP, maxP = pts[idx[0]], pts[idx[0]]
	for _, i := range idx[1:] {
		p := pts[i]
		minP.X, maxP.X = minMax(minP.X, maxP.X, p.X)
		minP.Y, maxP.Y = minMax(minP.Y, maxP.Y, p.Y)
		minP.Z, maxP.Z = minMax(minP.Z, maxP.Z, p.Z)
	}
	return minP, maxP
}

// widestAxis returns the axis (0=X, 1=Y, 2=Z) with the largest box extent
// and that extent, preferring X over Y over Z on ties so splits are
// deterministic.
func widestAxis(minP, maxP geom.Point) (axis int, extent float64) {
	extent = maxP.X - minP.X
	if e := maxP.Y - minP.Y; e > extent {
		axis, extent = 1, e
	}
	if e := maxP.Z - minP.Z; e > extent {
		axis, extent = 2, e
	}
	return axis, extent
}

// coord returns the axis coordinate of point i.
func (t *KDTree) coord(i int32, axis int) float64 {
	p := t.pts[i]
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	default:
		return p.Z
	}
}

// selectNth partially sorts idx[lo:hi] by the axis coordinate so that the
// element at position nth is in its sorted place, with smaller coordinates
// before it and larger after. Three-way partitioning keeps the select linear
// even when most coordinates are tied (clustered and coincident-heavy
// placements), which a two-way partition degrades on.
func (t *KDTree) selectNth(lo, hi, nth int32, axis int) {
	for hi-lo > 1 {
		lt, gt := t.partition3(lo, hi, axis)
		switch {
		case nth < lt:
			hi = lt
		case nth >= gt:
			lo = gt
		default:
			return // nth lands in the equal band: it is in place
		}
	}
}

// partition3 partitions idx[lo:hi] around a median-of-three pivot coordinate
// into <, ==, > bands and returns the equal band [lt, gt).
func (t *KDTree) partition3(lo, hi int32, axis int) (lt, gt int32) {
	mid := lo + (hi-lo)/2
	pivot := median3(t.coord(t.idx[lo], axis), t.coord(t.idx[mid], axis), t.coord(t.idx[hi-1], axis))
	i, lt, gt := lo, lo, hi
	for i < gt {
		c := t.coord(t.idx[i], axis)
		switch {
		case c < pivot:
			t.idx[i], t.idx[lt] = t.idx[lt], t.idx[i]
			i++
			lt++
		case c > pivot:
			gt--
			t.idx[i], t.idx[gt] = t.idx[gt], t.idx[i]
		default:
			i++
		}
	}
	return lt, gt
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// ForEachPairWithin calls visit once per unordered pair (i < j) whose points
// lie at distance <= r, exactly as Index.ForEachPairWithin — the two visit
// the same pair set with the same squared distances, in different orders.
//
//adhoc:hotpath
func (t *KDTree) ForEachPairWithin(r float64, visit PairVisitor) {
	t.stats.PairQueries++
	if r < 0 || t.root < 0 || len(t.pts) < 2 {
		return
	}
	t.pairsSelf(t.root, r*r, visit)
}

// pairsSelf emits qualifying pairs with both endpoints in node a.
//
//adhoc:hotpath
func (t *KDTree) pairsSelf(a int32, r2 float64, visit PairVisitor) {
	nd := &t.nodes[a]
	if nd.left < 0 {
		for x := nd.lo; x < nd.hi; x++ {
			i := t.idx[x]
			pi := t.pts[i]
			for y := x + 1; y < nd.hi; y++ {
				j := t.idx[y]
				if d2 := geom.Dist2(pi, t.pts[j]); d2 <= r2 {
					emitOrdered(int(i), int(j), d2, visit)
				}
			}
		}
		return
	}
	t.pairsSelf(nd.left, r2, visit)
	t.pairsSelf(nd.right, r2, visit)
	t.pairsCross(nd.left, nd.right, r2, visit)
}

// pairsCross emits qualifying pairs with one endpoint in each node.
//
//adhoc:hotpath
func (t *KDTree) pairsCross(a, b int32, r2 float64, visit PairVisitor) {
	na, nb := &t.nodes[a], &t.nodes[b]
	if boxMinDist2(na, nb) > r2 {
		return
	}
	aLeaf, bLeaf := na.left < 0, nb.left < 0
	if aLeaf && bLeaf {
		for x := na.lo; x < na.hi; x++ {
			i := t.idx[x]
			pi := t.pts[i]
			for y := nb.lo; y < nb.hi; y++ {
				j := t.idx[y]
				if d2 := geom.Dist2(pi, t.pts[j]); d2 <= r2 {
					emitOrdered(int(i), int(j), d2, visit)
				}
			}
		}
		return
	}
	// Split the larger node so box bounds tighten as fast as possible.
	if bLeaf || (!aLeaf && na.hi-na.lo >= nb.hi-nb.lo) {
		t.pairsCross(na.left, b, r2, visit)
		t.pairsCross(na.right, b, r2, visit)
	} else {
		t.pairsCross(a, nb.left, r2, visit)
		t.pairsCross(a, nb.right, r2, visit)
	}
}

// boxMinDist2 returns a lower bound on the squared distance between any
// point of a's box and any point of b's box. The per-axis gaps are single
// subtractions of exact point coordinates and the squares are summed in the
// operation order of geom.Dist2, so by monotonicity of float64 rounding
// every pair's Dist2 value is >= this bound — pruning on it can never drop
// a pair the grid or the brute-force reference would emit.
//
//adhoc:hotpath
func boxMinDist2(a, b *kdNode) float64 {
	dx := axisGap(a.minX, a.maxX, b.minX, b.maxX)
	dy := axisGap(a.minY, a.maxY, b.minY, b.maxY)
	dz := axisGap(a.minZ, a.maxZ, b.minZ, b.maxZ)
	return geom.SumSq(dx, dy, dz)
}

// boxMaxDist2 returns an upper bound on the squared distance between any
// point of a's box and any point of b's box, with the same rounding-monotone
// construction as boxMinDist2 (every pair's Dist2 value is <= this bound).
//
//adhoc:hotpath
func boxMaxDist2(a, b *kdNode) float64 {
	dx := axisSpan(a.minX, a.maxX, b.minX, b.maxX)
	dy := axisSpan(a.minY, a.maxY, b.minY, b.maxY)
	dz := axisSpan(a.minZ, a.maxZ, b.minZ, b.maxZ)
	return geom.SumSq(dx, dy, dz)
}

// axisGap returns the separation of two intervals on one axis (0 when they
// overlap).
func axisGap(amin, amax, bmin, bmax float64) float64 {
	if amax < bmin {
		return bmin - amax
	}
	if bmax < amin {
		return amin - bmax
	}
	return 0
}

// axisSpan returns the largest possible |difference| between a value of
// [amin, amax] and a value of [bmin, bmax].
func axisSpan(amin, amax, bmin, bmax float64) float64 {
	s := amax - bmin
	if u := bmax - amin; u > s {
		s = u
	}
	return s
}

// NearestNeighborDistancesInto is the tree analogue of the package-level
// NearestNeighborDistancesInto: dst (len(pts), overwritten) receives each
// point's distance to its nearest other point (+Inf for a singleton set).
// The tree is rebuilt over pts; distances are bit-identical to the grid
// path, since both take the exact minimum of the same geom.Dist2 values.
func (t *KDTree) NearestNeighborDistancesInto(dst []float64, pts []geom.Point) []float64 {
	n := len(pts)
	dst = dst[:n]
	if n < 2 {
		for i := range dst {
			dst[i] = math.Inf(1)
		}
		return dst
	}
	t.Rebuild(pts, 3)
	for i := range pts {
		dst[i] = math.Sqrt(t.nearest(t.root, int32(i), pts[i], math.Inf(1)))
	}
	return dst
}

// nearest returns the smallest squared distance from p to any indexed point
// other than skip, starting from the running best. Children are descended
// nearer-box first; a child whose box cannot beat best is pruned (its points
// all have Dist2 >= the box bound >= best, see boxMinDist2).
//
//adhoc:hotpath
func (t *KDTree) nearest(node, skip int32, p geom.Point, best float64) float64 {
	nd := &t.nodes[node]
	if nd.left < 0 {
		for x := nd.lo; x < nd.hi; x++ {
			j := t.idx[x]
			if j == skip {
				continue
			}
			if d2 := geom.Dist2(p, t.pts[j]); d2 < best {
				best = d2
			}
		}
		return best
	}
	l, r := nd.left, nd.right
	dl, dr := t.pointBoxDist2(p, l), t.pointBoxDist2(p, r)
	if dr < dl {
		l, r = r, l
		dl, dr = dr, dl
	}
	if dl < best {
		best = t.nearest(l, skip, p, best)
	}
	if dr < best {
		best = t.nearest(r, skip, p, best)
	}
	return best
}

// pointBoxDist2 returns a rounding-monotone lower bound on the squared
// distance from p to any point of the node's box.
//
//adhoc:hotpath
func (t *KDTree) pointBoxDist2(p geom.Point, node int32) float64 {
	nd := &t.nodes[node]
	dx := axisGap(p.X, p.X, nd.minX, nd.maxX)
	dy := axisGap(p.Y, p.Y, nd.minY, nd.maxY)
	dz := axisGap(p.Z, p.Z, nd.minZ, nd.maxZ)
	return geom.SumSq(dx, dy, dz)
}
