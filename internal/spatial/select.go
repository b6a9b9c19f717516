package spatial

// Backend selection: per-snapshot choice between the uniform cell grid and
// the k-d tree. The grid wins when points spread evenly over its cells (its
// scans are cache-friendly and build is a counting sort); the tree wins when
// the placement is clustered, because the grid's O(n) cell budget then
// forces coarse cells with quadratic intra-cell scans. The heuristic below
// estimates exactly that failure mode — mean squared cell occupancy of the
// grid Rebuild would actually build, against what a uniform placement
// scores on that grid — from a bounded point sample.
//
// The choice is a pure performance decision: both backends emit identical
// pair sets with identical squared distances (see kdtree.go), so results are
// bit-identical whichever is picked. It must still be deterministic — the
// two-level scheduler evaluates snapshots on a worker pool, and a pick that
// depended on anything but the snapshot itself would not be reproducible.
// CellCrowding is a pure function of (pts, r): stride sampling, no RNG, no
// global state.

import (
	"fmt"

	"adhocnet/internal/geom"
)

// Backend names a spatial-index implementation, or defers the choice.
type Backend uint8

const (
	// BackendAuto picks grid or k-d tree per snapshot via ChooseBackend.
	BackendAuto Backend = iota
	// BackendGrid forces the uniform cell grid (Index).
	BackendGrid
	// BackendKDTree forces the k-d tree (KDTree).
	BackendKDTree
)

// String returns the flag-style name of the backend.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendGrid:
		return "grid"
	case BackendKDTree:
		return "kdtree"
	default:
		return fmt.Sprintf("Backend(%d)", uint8(b))
	}
}

// ParseBackend maps a flag-style name to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "auto", "":
		return BackendAuto, nil
	case "grid":
		return BackendGrid, nil
	case "kdtree", "tree", "kd":
		return BackendKDTree, nil
	default:
		return BackendAuto, fmt.Errorf("unknown spatial backend %q (want auto, grid, or kdtree)", s)
	}
}

// Selection thresholds. autoMinPoints keeps tiny snapshots on the grid,
// where constant factors dominate and both backends are microseconds.
// crowdingRatio is the level of crowding, relative to what a uniform
// placement scores on the same grid, above which the grid's intra-cell
// scans outweigh the tree's box tests. The test is relative because the
// uniform level itself moves with the grid's shape: gridShape doubles the
// cell side until the grid fits its n/2+1 cell budget, which in 3-D
// multiplies the cell volume by 8, so a uniform 3-D placement at the
// paper's density sees ~8 points per cell and scores ~9 — above any
// absolute threshold that also lets moderately clustered 2-D placements
// reach the tree. Over 20 seeds per case, uniform 2-D and 3-D placements
// at n = 128..16384 score at most ~2.0 (3-D n = 224, where the last cell
// layer of each axis is nearly empty), the 8- and 64-island placements of
// the benchmarks and scenarios at least ~3.1 (clustered-sensorfield,
// n = 256); 2.5 sits between them.
const (
	autoMinPoints   = 128
	crowdingSamples = 256
	crowdingRatio   = 2.5
)

// CellCrowding estimates the mean squared cell occupancy ("crowding") of the
// grid that Index.Rebuild would build over pts at query radius r, from a
// stride sample of at most crowdingSamples points, and returns it with
// uniform, the crowding a uniform placement of the same n would score on the
// same grid: n/cells + 1, the mean occupancy a point of a Poisson placement
// sees (itself plus its expected cohabitants). Clustered placements score
// roughly the island population. ok is false when the estimate is
// meaningless: fewer than two points, a non-positive radius, or a grid
// degenerated to a single cell (zero extent).
//
// The estimate corrects for sampling: with s of n points sampled, a cell
// holding c sampled points holds about c*n/s real ones, and the unbiased
// occupancy seen by a random point is (c-1)*(n/s) + 1 (the point itself is
// certainly there; its c-1 sampled cohabitants each stand for n/s points).
func CellCrowding(pts []geom.Point, r float64) (crowding, uniform float64, ok bool) {
	n := len(pts)
	if n < 2 || r <= 0 {
		return 0, 0, false
	}
	minP, maxP := bounds(pts)
	side, nx, ny, nz := gridShape(minP, maxP, n, r)
	cells := int(nx) * int(ny) * int(nz)
	if cells <= 1 {
		return 0, 0, false
	}
	stride := 1
	if n > crowdingSamples {
		stride = (n + crowdingSamples - 1) / crowdingSamples
	}
	inv := 1.0 / side
	// Open-addressed cell→count table, sized far above the sample count so
	// probing stays short. Keys are packed cell coordinates offset by one so
	// the zero word means "empty".
	const tableSize = 1024 // power of two > 2*crowdingSamples
	var table [tableSize]struct {
		key   uint64
		count int32
	}
	sampled := 0
	for i := 0; i < n; i += stride {
		p := pts[i]
		cx := uint64(clampCell(int32((p.X-minP.X)*inv), nx))
		cy := uint64(clampCell(int32((p.Y-minP.Y)*inv), ny))
		cz := uint64(clampCell(int32((p.Z-minP.Z)*inv), nz))
		key := ((cz<<21|cy)<<21 | cx) + 1
		h := (key * 0x9e3779b97f4a7c15) % tableSize
		for table[h].key != 0 && table[h].key != key {
			h = (h + 1) % tableSize
		}
		table[h].key = key
		table[h].count++
		sampled++
	}
	scale := float64(n) / float64(sampled)
	sum := 0.0
	for _, e := range table {
		if e.key == 0 {
			continue
		}
		c := float64(e.count)
		// Occupancy experienced per sampled point in this cell, summed:
		// c * ((c-1)*scale + 1).
		sum += c * ((c-1)*scale + 1)
	}
	return sum / float64(sampled), float64(n)/float64(cells) + 1, true
}

// ChooseBackend resolves BackendAuto to a concrete backend for one snapshot
// at query radius r. It is deterministic in (pts, r) — same snapshot, same
// pick, regardless of worker count or call site. Degenerate inputs (tiny n,
// zero extent, non-positive radius) fall back to the grid, which handles
// them all.
func ChooseBackend(pts []geom.Point, dim int, r float64) Backend {
	_ = dim
	if len(pts) < autoMinPoints {
		return BackendGrid
	}
	crowding, uniform, ok := CellCrowding(pts, r)
	if ok && crowding > crowdingRatio*uniform {
		return BackendKDTree
	}
	return BackendGrid
}
