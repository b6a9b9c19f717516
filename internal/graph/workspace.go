package graph

import (
	"math"
	"slices"
	"sync"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
)

// workspacePool backs the convenience entry points (NewProfile, GeoMST,
// MSTBottleneck) so one-shot callers still amortize scratch storage across
// calls. Simulation loops hold their own per-worker workspace instead.
var workspacePool = sync.Pool{New: func() any { return NewWorkspace() }}

// Workspace is the reusable scratch storage of the snapshot pipeline: the
// spatial grid, union-find arrays, edge buffers, candidate arrays and
// profile event slices needed to evaluate the connectivity of one placement.
// One workspace serves one goroutine; the simulator keeps one per worker so
// steady-state snapshot evaluation allocates nothing.
//
// All pointers and slices returned by Workspace methods (profiles, MST edge
// lists, adjacency structures) are TRANSIENT: they are backed by the
// workspace and overwritten by the next call on the same workspace. Callers
// that retain a result must copy it (Profile.Clone, slices.Clone).
type Workspace struct {
	uf UnionFind
	ix spatial.Index
	kd spatial.KDTree

	// backend is the spatial-index policy for this workspace's pair scans:
	// BackendAuto (the default) picks grid or k-d tree per snapshot from the
	// sampled cell crowding, the others force one implementation. Both
	// backends visit identical pair sets with identical squared distances,
	// so the policy changes performance only — never results.
	backend spatial.Backend

	edges []Edge       // MST / point-graph edge buffer
	cand  []candidate  // filtered Kruskal: current annulus batch
	xs    []float64    // 1-D coordinate scratch
	pts   []geom.Point // placement scratch for samplers

	inTree   []bool // dense Prim scratch
	bestDist []float64
	bestFrom []int32
	dist2    []float64 // Dist2Batch row scratch

	cursor []int32 // adjacency build scratch
	labels []int32 // component-labeling scratch
	queue  []int32

	seen, frontier, next []sourceSet // all-sources BFS scratch (hopStatsInto)
	disc, low            []int32     // cut-vertex scratch (cutVerticesInto)
	isCut                []bool
	frames               []dfsFrame

	prof Profile
	adj  Adjacency

	// Pre-bound visitors, created lazily so repeated grid scans do not
	// allocate a closure per call.
	batchVisitor    spatial.PairVisitor
	outsiderVisitor spatial.PairVisitor
	batchPrevR2     float64
	edgeVisitor     spatial.PairVisitor

	kin kinetic // incremental-update state (kinetic.go); inert until SetKinetic(true)

	stats WorkspaceStats // operation counters (stats.go), drained by TakeStats
}

// NewWorkspace returns an empty workspace. Buffers grow on first use and are
// reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// AcquireWorkspace hands out a workspace from the package pool. It is meant
// for transient worker goroutines (the simulator's inner snapshot pool) whose
// scratch should outlive the goroutine and be reused by the next pool:
// pair it with ReleaseWorkspace when the goroutine exits.
func AcquireWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// ReleaseWorkspace returns a workspace obtained from AcquireWorkspace to the
// package pool. The caller must not use ws (or anything a ws method returned)
// afterwards. The spatial-backend policy and the kinetic arming are reset so
// the next acquirer starts from the plain rebuild-per-snapshot default.
func ReleaseWorkspace(ws *Workspace) {
	ws.backend = spatial.BackendAuto
	ws.SetKinetic(false)
	ws.TakeStats() // drop unclaimed counters so the next acquirer starts at zero
	workspacePool.Put(ws)
}

// SetSpatialBackend sets the workspace's spatial-index policy. The zero
// value, BackendAuto, selects grid or k-d tree per snapshot; forcing a
// backend is for benchmarks and cross-validation, since results are
// bit-identical either way.
func (ws *Workspace) SetSpatialBackend(b spatial.Backend) { ws.backend = b }

// SpatialBackend reports the workspace's spatial-index policy.
func (ws *Workspace) SpatialBackend() spatial.Backend { return ws.backend }

// resolveBackend turns the workspace policy into a concrete backend for one
// snapshot at query radius r.
func (ws *Workspace) resolveBackend(pts []geom.Point, dim int, r float64) spatial.Backend {
	if ws.backend != spatial.BackendAuto {
		return ws.backend
	}
	b := spatial.ChooseBackend(pts, dim, r)
	if b == spatial.BackendKDTree {
		ws.stats.TreePicks++
	} else {
		ws.stats.GridPicks++
	}
	return b
}

// Points returns the workspace's placement scratch buffer resized to n
// points (contents unspecified). Samplers that draw one placement per
// iteration fill this instead of allocating a fresh slice.
func (ws *Workspace) Points(n int) []geom.Point {
	if cap(ws.pts) < n {
		ws.pts = make([]geom.Point, n)
	}
	ws.pts = ws.pts[:n]
	return ws.pts
}

// Profile computes the connectivity profile of the placement, using the
// O(n log n) sorted-gaps algorithm in one dimension and the grid-accelerated
// Euclidean MST otherwise. The returned profile is transient (see the type
// comment); Clone it to retain it past the next workspace call.
func (ws *Workspace) Profile(pts []geom.Point, dim int) *Profile {
	n := len(pts)
	if dim == 1 {
		xs := grow(ws.xs, n)
		ws.xs = xs
		for i, p := range pts {
			xs[i] = p.X
		}
		slices.Sort(xs)
		ws.edges = ws.edges[:0]
		for i := 0; i+1 < n; i++ {
			ws.edges = append(ws.edges, Edge{I: int32(i), J: int32(i + 1), D: xs[i+1] - xs[i]})
		}
		return ws.replayProfile(n, ws.edges)
	}
	return ws.replayProfile(n, ws.GeoMST(pts, dim))
}

// replayProfile sorts the edge list in place by weight and replays it
// through the workspace union-find into the workspace-owned profile.
func (ws *Workspace) replayProfile(n int, edges []Edge) *Profile {
	p := &ws.prof
	p.n = n
	p.mergeRadii = p.mergeRadii[:0]
	p.largestAfter = p.largestAfter[:0]
	if n < 2 {
		return p
	}
	slices.SortFunc(edges, cmpEdgeByD)
	ws.uf.Reset(n)
	replayMST(p, &ws.uf, edges)
	return p
}

// PointGraph constructs the communication graph of the placement at
// transmitting range r into workspace-owned storage. The returned adjacency
// is transient (overwritten by the next PointGraph call on this workspace).
func (ws *Workspace) PointGraph(pts []geom.Point, dim int, r float64) *Adjacency {
	ws.edges = ws.edges[:0]
	if r >= 0 && len(pts) >= 2 {
		if ws.edgeVisitor == nil {
			ws.edgeVisitor = func(i, j int, d2 float64) {
				ws.edges = append(ws.edges, Edge{I: int32(i), J: int32(j), D: math.Sqrt(d2)})
			}
		}
		switch {
		case r == 0:
			spatial.BruteForcePairsWithin(pts, 0, ws.edgeVisitor)
		case ws.resolveBackend(pts, dim, r) == spatial.BackendKDTree:
			ws.kd.Rebuild(pts, dim)
			ws.kd.ForEachPairWithin(r, ws.edgeVisitor)
		default:
			ws.ix.Rebuild(pts, dim, r)
			ws.ix.ForEachPairWithin(r, ws.edgeVisitor)
		}
	}
	return ws.buildAdjacency(len(pts), ws.edges)
}

// buildAdjacency is AdjacencyFromEdges into the workspace-owned adjacency.
func (ws *Workspace) buildAdjacency(n int, edges []Edge) *Adjacency {
	a := &ws.adj
	a.N = n
	a.offsets = grow(a.offsets, n+1)
	for i := 0; i <= n; i++ {
		a.offsets[i] = 0
	}
	for _, e := range edges {
		if e.I == e.J {
			continue
		}
		a.offsets[e.I+1]++
		a.offsets[e.J+1]++
	}
	for i := 0; i < n; i++ {
		a.offsets[i+1] += a.offsets[i]
	}
	a.nbrs = grow(a.nbrs, int(a.offsets[n]))
	ws.cursor = grow(ws.cursor, n)
	copy(ws.cursor, a.offsets[:n])
	for _, e := range edges {
		if e.I == e.J {
			continue
		}
		a.nbrs[ws.cursor[e.I]] = e.J
		ws.cursor[e.I]++
		a.nbrs[ws.cursor[e.J]] = e.I
		ws.cursor[e.J]++
	}
	return a
}

// ComponentSummary returns the number of connected components and the size
// of the largest one over workspace scratch, allocating nothing in steady
// state. It returns (0, 0) for the empty graph.
func (ws *Workspace) ComponentSummary(a *Adjacency) (components, largest int) {
	ws.labels = grow(ws.labels, a.N)
	ws.queue = grow(ws.queue, a.N)
	return labelComponents(a, ws.labels, ws.queue)
}

// grow resizes s to length n, reusing capacity. The contents are
// unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
