// Package spatial provides neighbor search over node placements. The
// simulator's inner loop builds the communication graph G_M(t) — the point
// graph with an edge between every pair of nodes at distance <= r — and this
// package supplies both a uniform cell-grid index (near-linear time for
// realistic densities) and a brute-force reference used to cross-check it.
package spatial

import (
	"math"

	"adhocnet/internal/geom"
)

// PairVisitor receives one unordered node pair (i < j) together with the
// squared distance between the two points.
type PairVisitor func(i, j int, d2 float64)

// cellKey is an integer cell offset used by the neighbor stencils. Unused
// dimensions stay zero, so the same key works for d in {1,2,3}.
type cellKey struct {
	x, y, z int32
}

// Index is a uniform cell grid over a fixed point set, stored in
// compressed-sparse-row form: one flat slice of point indices grouped by
// cell, plus a starts array indexed by linearized cell coordinate. Cells are
// anchored at the bounding box of the points and the cell count is bounded
// by O(n) — when the requested cell side would produce more cells than that
// (the paper's sparse regimes, e.g. 128 nodes in a 16384-side square), the
// side is grown until the grid fits, which keeps memory proportional to the
// point count rather than the region volume while remaining correct for any
// query radius up to the (grown) side.
//
// An Index is reusable storage: Rebuild re-indexes a new point set (or the
// same points at a new cell side) into the existing backing arrays, so
// steady-state rebuilds allocate nothing.
type Index struct {
	pts  []geom.Point
	side float64 // effective cell side (>= requested); <= 0 means one cell

	// Bounding-box anchor and per-axis cell counts.
	minX, minY, minZ float64
	nx, ny, nz       int32

	starts   []int32 // len nCells+1; cell c occupies items[starts[c]:starts[c+1]]
	items    []int32 // point indices grouped by cell
	cursor   []int32 // build scratch
	scratch  []int32 // query scratch (expanding-radius searches)
	nodeCell []int32 // build scratch: cell of every point, one division each

	stats Stats // operation counters, drained by TakeStats
}

// maxCellBudget bounds the total cell count so the CSR arrays stay O(n).
func maxCellBudget(n int) int {
	b := n/2 + 1
	if b < 64 {
		b = 64
	}
	return b
}

// NewIndex builds a grid index with the given cell side over pts. The index
// answers pair queries for any radius r <= side. A non-positive side yields
// an index that degrades to a single cell (all points), which is still
// correct, just slower. The dim argument is retained for API symmetry with
// the rest of the simulator; the grid itself is derived from the point
// coordinates (inactive axes have zero extent and collapse to one cell
// layer), so it is correct for every dimension.
func NewIndex(pts []geom.Point, dim int, side float64) *Index {
	ix := &Index{}
	ix.Rebuild(pts, dim, side)
	return ix
}

// Rebuild re-indexes pts at the given cell side, reusing the Index's backing
// arrays. It is the zero-allocation path for workloads that index one
// snapshot after another.
func (ix *Index) Rebuild(pts []geom.Point, dim int, side float64) {
	ix.stats.Rebuilds++
	ix.pts = pts
	n := len(pts)
	if n == 0 || side <= 0 {
		ix.side = 0
		ix.nx, ix.ny, ix.nz = 1, 1, 1
		ix.degenerateBuild()
		return
	}

	minP, maxP := bounds(pts)
	ix.minX, ix.minY, ix.minZ = minP.X, minP.Y, minP.Z
	ix.side, ix.nx, ix.ny, ix.nz = gridShape(minP, maxP, n, side)

	// One division pass: cellOf is evaluated once per point into nodeCell,
	// which the counting and scatter passes below both read back. Points are
	// scattered in ascending index order, so every cell's member list
	// ascends — the invariant ForEachPairWithin's intra-cell i < j loop
	// relies on.
	ix.nodeCell = growInt32(ix.nodeCell, n)
	for i, p := range pts {
		ix.nodeCell[i] = ix.cellOf(p)
	}
	cells := int(ix.nx) * int(ix.ny) * int(ix.nz)
	ix.starts = growInt32(ix.starts, cells+1)
	ix.cursor = growInt32(ix.cursor, cells)
	ix.items = growInt32(ix.items, n)
	for c := 0; c <= cells; c++ {
		ix.starts[c] = 0
	}
	for _, c := range ix.nodeCell[:n] {
		ix.starts[c+1]++
	}
	for c := 0; c < cells; c++ {
		ix.starts[c+1] += ix.starts[c]
	}
	copy(ix.cursor, ix.starts[:cells])
	for i, c := range ix.nodeCell[:n] {
		ix.items[ix.cursor[c]] = int32(i)
		ix.cursor[c]++
	}
}

// gridShape returns the effective cell side and per-axis cell counts a grid
// over the bounding box [minP, maxP] of n points would use at the requested
// side: the side is doubled until the grid fits the O(n) cell budget.
// Doubling terminates quickly — once the side exceeds every extent the grid
// is 1-2 cells per axis. A non-finite side or extent (NaN or infinite
// coordinates) would never fit, so it yields the single-cell grid (side 0),
// which is still exact. This is the single source of truth for the grid
// geometry; Rebuild and the backend-selection heuristic (select.go) share it
// so the heuristic reasons about exactly the grid Rebuild would build.
func gridShape(minP, maxP geom.Point, n int, side float64) (s float64, nx, ny, nz int32) {
	budget := maxCellBudget(n)
	ex, ey, ez := maxP.X-minP.X, maxP.Y-minP.Y, maxP.Z-minP.Z
	if !isFinite(side) || !isFinite(ex) || !isFinite(ey) || !isFinite(ez) {
		return 0, 1, 1, 1
	}
	for {
		nx = cellsForExtent(ex, side)
		ny = cellsForExtent(ey, side)
		nz = cellsForExtent(ez, side)
		if int(nx)*int(ny)*int(nz) <= budget {
			return side, nx, ny, nz
		}
		side *= 2
	}
}

// degenerateBuild indexes every point into the single cell 0.
func (ix *Index) degenerateBuild() {
	n := len(ix.pts)
	ix.starts = growInt32(ix.starts, 2)
	ix.items = growInt32(ix.items, n)
	ix.starts[0] = 0
	ix.starts[1] = int32(n)
	for i := range ix.pts {
		ix.items[i] = int32(i)
	}
}

// isFinite reports whether v is neither NaN nor infinite.
func isFinite(v float64) bool { return v-v == 0 }

func minMax(lo, hi, v float64) (float64, float64) {
	if v < lo {
		lo = v
	}
	if v > hi {
		hi = v
	}
	return lo, hi
}

// bounds returns the componentwise bounding box of a non-empty point set.
func bounds(pts []geom.Point) (minP, maxP geom.Point) {
	minP, maxP = pts[0], pts[0]
	for _, p := range pts[1:] {
		minP.X, maxP.X = minMax(minP.X, maxP.X, p.X)
		minP.Y, maxP.Y = minMax(minP.Y, maxP.Y, p.Y)
		minP.Z, maxP.Z = minMax(minP.Z, maxP.Z, p.Z)
	}
	return minP, maxP
}

// BoundingExtent returns the largest axis extent of a point set and the
// number of axes with positive extent. A zero extent means every point
// coincides (including the empty and singleton sets). When a coordinate is
// NaN or infinite the extent is NaN or +Inf, and dims is unspecified.
func BoundingExtent(pts []geom.Point) (extent float64, dims int) {
	if len(pts) == 0 {
		return 0, 0
	}
	// Every comparison with NaN is false, so bounds skips a NaN coordinate
	// past the first point; look for one here.
	for _, p := range pts {
		if p.X != p.X || p.Y != p.Y || p.Z != p.Z {
			return math.NaN(), 0
		}
	}
	minP, maxP := bounds(pts)
	for _, e := range [3]float64{maxP.X - minP.X, maxP.Y - minP.Y, maxP.Z - minP.Z} {
		if !isFinite(e) {
			return e, dims
		}
		if e > 0 {
			dims++
			if e > extent {
				extent = e
			}
		}
	}
	return extent, dims
}

// cellsForExtent returns how many cells of the given side cover an axis of
// the given extent (at least 1). The count is capped so the three-axis
// product cannot overflow; an undercounted axis only clamps far points into
// the boundary cell, which costs time but never misses a pair.
func cellsForExtent(extent, side float64) int32 {
	if extent <= 0 {
		return 1
	}
	const maxAxisCells = 1 << 20
	q := extent / side
	if !(q < maxAxisCells-1) {
		return maxAxisCells
	}
	n := int32(q) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// growInt32 resizes s to length n, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// cellOf returns the linearized cell index of p. Points are always inside
// the bounding box the grid was built from, so coordinates are clamped only
// to absorb floating-point edge effects at the upper boundary.
func (ix *Index) cellOf(p geom.Point) int32 {
	if ix.side <= 0 {
		return 0
	}
	cx := clampCell(int32((p.X-ix.minX)/ix.side), ix.nx)
	cy := clampCell(int32((p.Y-ix.minY)/ix.side), ix.ny)
	cz := clampCell(int32((p.Z-ix.minZ)/ix.side), ix.nz)
	return (cz*ix.ny+cy)*ix.nx + cx
}

func clampCell(c, n int32) int32 {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// cell returns the point indices in cell (cx, cy, cz).
func (ix *Index) cell(cx, cy, cz int32) []int32 {
	c := (cz*ix.ny+cy)*ix.nx + cx
	return ix.items[ix.starts[c]:ix.starts[c+1]]
}

// Side returns the effective cell side of the index (>= the requested side
// when the cell budget forced the grid coarser; 0 for the degenerate
// single-cell index).
func (ix *Index) Side() float64 { return ix.side }

// ForEachPairWithin calls visit once per unordered pair (i < j) whose points
// lie at distance <= r. It requires r <= the index cell side; larger radii
// would miss pairs, so the call silently widens to a correct (brute-force)
// scan in that case rather than return wrong results.
//
//adhoc:hotpath
func (ix *Index) ForEachPairWithin(r float64, visit PairVisitor) {
	ix.stats.PairQueries++
	if r < 0 {
		return
	}
	if ix.side > 0 && r > ix.side {
		BruteForcePairsWithin(ix.pts, r, visit)
		return
	}
	r2 := r * r
	stencil := halfStencil(ix.stencilDim())
	for cz := int32(0); cz < ix.nz; cz++ {
		for cy := int32(0); cy < ix.ny; cy++ {
			for cx := int32(0); cx < ix.nx; cx++ {
				members := ix.cell(cx, cy, cz)
				if len(members) == 0 {
					continue
				}
				// Pairs inside the cell (members ascend, so i < j holds).
				for a := 0; a < len(members); a++ {
					i := members[a]
					for b := a + 1; b < len(members); b++ {
						j := members[b]
						d2 := geom.Dist2(ix.pts[i], ix.pts[j])
						if d2 <= r2 {
							visit(int(i), int(j), d2)
						}
					}
				}
				// Pairs across to forward neighbor cells.
				for _, off := range stencil {
					ox, oy, oz := cx+off.x, cy+off.y, cz+off.z
					if ox < 0 || ox >= ix.nx || oy < 0 || oy >= ix.ny || oz < 0 || oz >= ix.nz {
						continue
					}
					other := ix.cell(ox, oy, oz)
					for _, i := range members {
						for _, j := range other {
							d2 := geom.Dist2(ix.pts[i], ix.pts[j])
							if d2 <= r2 {
								emitOrdered(int(i), int(j), d2, visit)
							}
						}
					}
				}
			}
		}
	}
}

// ForEachNear calls visit once for every point j != i within distance r of
// point i, in ascending cell order (the grid's usual scan order). Unlike
// ForEachPairWithin it is a directed single-point query — visit receives
// (i, j, d2) with i always the query point, not the i < j pair convention —
// GeoMST's outsider rounds ask it for each point outside the largest
// component, touching only that point's neighborhood instead of
// re-enumerating every pair. It requires r <= the cell side like every grid
// query; larger radii widen to a brute-force scan over the point's row,
// which stays correct.
//
//adhoc:hotpath
func (ix *Index) ForEachNear(i int32, r float64, visit PairVisitor) {
	ix.stats.NearQueries++
	if r < 0 {
		return
	}
	p := ix.pts[i]
	r2 := r * r
	if ix.side > 0 && r > ix.side {
		for j := range ix.pts {
			if int32(j) == i {
				continue
			}
			if d2 := geom.Dist2(p, ix.pts[j]); d2 <= r2 {
				visit(int(i), j, d2)
			}
		}
		return
	}
	cx, cy, cz := int32(0), int32(0), int32(0)
	if ix.side > 0 {
		cx = clampCell(int32((p.X-ix.minX)/ix.side), ix.nx)
		cy = clampCell(int32((p.Y-ix.minY)/ix.side), ix.ny)
		cz = clampCell(int32((p.Z-ix.minZ)/ix.side), ix.nz)
	}
	for dz := int32(-1); dz <= 1; dz++ {
		z := cz + dz
		if z < 0 || z >= ix.nz {
			continue
		}
		for dy := int32(-1); dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= ix.ny {
				continue
			}
			for dx := int32(-1); dx <= 1; dx++ {
				x := cx + dx
				if x < 0 || x >= ix.nx {
					continue
				}
				for _, j := range ix.cell(x, y, z) {
					if j == i {
						continue
					}
					if d2 := geom.Dist2(p, ix.pts[j]); d2 <= r2 {
						visit(int(i), int(j), d2)
					}
				}
			}
		}
	}
}

// stencilDim returns the effective dimensionality of the grid: axes that
// collapsed to a single cell layer need no stencil offsets.
func (ix *Index) stencilDim() int {
	switch {
	case ix.nz > 1:
		return 3
	case ix.ny > 1:
		return 2
	default:
		return 1
	}
}

//adhoc:hotpath
func emitOrdered(i, j int, d2 float64, visit PairVisitor) {
	if i < j {
		visit(i, j, d2)
	} else {
		visit(j, i, d2)
	}
}

// Precomputed forward half-stencils per dimension (see halfStencil).
var halfStencils = [4][]cellKey{
	nil,
	buildHalfStencil(1),
	buildHalfStencil(2),
	buildHalfStencil(3),
}

// halfStencil returns the forward half of the 3^d - 1 neighbor offsets, i.e.
// those lexicographically greater than the zero offset. Visiting only these
// from every cell touches each unordered cell pair exactly once.
func halfStencil(dim int) []cellKey {
	return halfStencils[dim]
}

func buildHalfStencil(dim int) []cellKey {
	var lo int32 = -1
	maxY, maxZ := int32(0), int32(0)
	if dim >= 2 {
		maxY = 1
	}
	if dim >= 3 {
		maxZ = 1
	}
	var out []cellKey
	for z := -maxZ; z <= maxZ; z++ {
		for y := -maxY; y <= maxY; y++ {
			for x := lo; x <= 1; x++ {
				k := cellKey{x, y, z}
				if k == (cellKey{}) {
					continue
				}
				if isForward(k) {
					out = append(out, k)
				}
			}
		}
	}
	return out
}

// isForward reports whether the offset is lexicographically positive in
// (z, y, x) order.
func isForward(k cellKey) bool {
	if k.z != 0 {
		return k.z > 0
	}
	if k.y != 0 {
		return k.y > 0
	}
	return k.x > 0
}

// PairsWithin visits every unordered pair of points at distance <= r using a
// transient grid index sized to r. It is the standard entry point for
// building one communication graph.
func PairsWithin(pts []geom.Point, dim int, r float64, visit PairVisitor) {
	if r < 0 || len(pts) < 2 {
		return
	}
	if r == 0 {
		// Zero range: only coincident points are neighbors. The grid would
		// need infinite resolution; scan directly.
		BruteForcePairsWithin(pts, 0, visit)
		return
	}
	NewIndex(pts, dim, r).ForEachPairWithin(r, visit)
}

// BruteForcePairsWithin is the O(n^2) reference implementation of
// PairsWithin. It is used to validate the grid and as the fallback for radii
// exceeding the grid cell size.
func BruteForcePairsWithin(pts []geom.Point, r float64, visit PairVisitor) {
	if r < 0 {
		return
	}
	r2 := r * r
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			d2 := geom.Dist2(pts[i], pts[j])
			if d2 <= r2 {
				visit(i, j, d2)
			}
		}
	}
}

// CountPairsWithin returns the number of unordered pairs within distance r.
func CountPairsWithin(pts []geom.Point, dim int, r float64) int {
	n := 0
	PairsWithin(pts, dim, r, func(int, int, float64) { n++ })
	return n
}

// NearestNeighborDistances returns, for every point, the distance to its
// nearest other point (infinity for a singleton set). A node is isolated at
// range r exactly when its nearest-neighbor distance exceeds r — the quantity
// behind the isolated-node analysis of [Santi-Blough-Vainstein '01] that the
// paper's Section 3 sharpens.
func NearestNeighborDistances(pts []geom.Point) []float64 {
	var ix Index
	return NearestNeighborDistancesInto(make([]float64, len(pts)), pts, &ix)
}

// NearestNeighborDistancesInto is NearestNeighborDistances with
// caller-provided storage: dst (len(pts), overwritten) receives the
// distances and ix supplies reusable grid storage. It runs in near-linear
// time by an expanding-radius grid search: points are hashed at the mean
// nearest-neighbor scale, each point scans its 3^d cell neighborhood, and
// the few points whose neighbor lies further than one cell retry on a grid
// twice as coarse until resolved.
//
//adhoc:hotpath
func NearestNeighborDistancesInto(dst []float64, pts []geom.Point, ix *Index) []float64 {
	n := len(pts)
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Inf(1)
	}
	if n < 2 {
		return dst
	}

	extent, dims := BoundingExtent(pts)
	if extent == 0 {
		// All points coincident: every nearest-neighbor distance is zero.
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}

	// Start at the mean spacing of a uniform placement; unresolved points
	// escalate through doublings, so a bad guess only costs extra rounds.
	side := extent / math.Pow(float64(n), 1/float64(dims))

	unresolved := growInt32(ix.scratch, n)
	for i := range unresolved {
		unresolved[i] = int32(i)
	}
	for len(unresolved) > 0 {
		ix.Rebuild(pts, 3, side)
		side = ix.Side() // the cell budget may have coarsened the grid
		// The full 3^d neighborhood covers the whole grid when every axis
		// has at most two cells; then the scan below is exhaustive and its
		// result is final: the true nearest, or +Inf when no distance to
		// the point is finite (a NaN or infinite coordinate).
		exhaustive := ix.nx <= 2 && ix.ny <= 2 && ix.nz <= 2
		kept := unresolved[:0]
		for _, i := range unresolved {
			best := nearestInNeighborhood(ix, int(i))
			if best <= side*side || exhaustive {
				dst[i] = math.Sqrt(best)
			} else {
				kept = append(kept, i)
			}
		}
		unresolved = kept
		side *= 2
	}
	ix.scratch = unresolved[:0]
	return dst
}

// nearestInNeighborhood returns the squared distance from point i to its
// closest other point within the 3^d cells around i's cell (+Inf if that
// neighborhood holds no other point). Any point outside the neighborhood is
// at distance > the cell side, so a result <= side^2 is the true nearest
// neighbor.
//
//adhoc:hotpath
func nearestInNeighborhood(ix *Index, i int) float64 {
	p := ix.pts[i]
	cx := clampCell(int32((p.X-ix.minX)/ix.side), ix.nx)
	cy := clampCell(int32((p.Y-ix.minY)/ix.side), ix.ny)
	cz := clampCell(int32((p.Z-ix.minZ)/ix.side), ix.nz)
	if ix.side <= 0 {
		cx, cy, cz = 0, 0, 0
	}
	best := math.Inf(1)
	for dz := int32(-1); dz <= 1; dz++ {
		z := cz + dz
		if z < 0 || z >= ix.nz {
			continue
		}
		for dy := int32(-1); dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= ix.ny {
				continue
			}
			for dx := int32(-1); dx <= 1; dx++ {
				x := cx + dx
				if x < 0 || x >= ix.nx {
					continue
				}
				for _, j := range ix.cell(x, y, z) {
					if int(j) == i {
						continue
					}
					if d2 := geom.Dist2(p, ix.pts[j]); d2 < best {
						best = d2
					}
				}
			}
		}
	}
	return best
}
