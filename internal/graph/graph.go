// Package graph implements the communication-graph machinery of the paper:
// point graphs over node placements, connected-component analysis, and the
// connectivity profile of a placement (the exact function mapping a
// transmitting range r to the structure of the induced graph).
//
// The paper's central object is G_M(t) = (N, E(t)) with (u,v) in E(t) iff
// dist(u,v) <= r (Section 2). For a fixed placement, G is monotone in r, so
// every placement has a critical radius — the bottleneck (longest) edge of
// the Euclidean minimum spanning tree — below which it is disconnected and at
// or above which it is connected. The Profile type captures the entire
// evolution: component count and largest-component size as step functions of
// r, computed from the MST alone.
package graph

import (
	"math"
	"slices"
	"sort"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
)

// Edge is a weighted undirected edge between node indices I and J with
// Euclidean length D.
type Edge struct {
	I, J int32
	D    float64
}

// UnionFind is a disjoint-set forest with union by size and path compression.
// The zero value is not usable; construct with NewUnionFind.
type UnionFind struct {
	parent []int32
	size   []int32

	count       int   // number of disjoint sets
	largest     int   // size of the largest set
	largestRoot int32 // root of a set of size largest
}

// NewUnionFind returns a union-find structure over n singleton elements.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{}
	uf.Reset(n)
	return uf
}

// Reset reinitializes the structure to n singleton elements, reusing the
// backing arrays when they are large enough. It is the zero-allocation path
// for workloads that process one snapshot after another.
func (uf *UnionFind) Reset(n int) {
	if cap(uf.parent) < n {
		uf.parent = make([]int32, n)
		uf.size = make([]int32, n)
	}
	uf.parent = uf.parent[:n]
	uf.size = uf.size[:n]
	uf.count = n
	uf.largest = 0
	uf.largestRoot = 0
	if n > 0 {
		uf.largest = 1
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
}

// Find returns the representative of x's set.
//
//adhoc:hotpath
func (uf *UnionFind) Find(x int32) int32 {
	root := x
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for uf.parent[x] != root {
		uf.parent[x], x = root, uf.parent[x]
	}
	return root
}

// Union merges the sets containing a and b and reports whether a merge
// actually happened (false if they were already together).
//
//adhoc:hotpath
func (uf *UnionFind) Union(a, b int32) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.count--
	// A merge involving the largest set always exceeds the old maximum, so
	// largestRoot follows it without a search.
	if int(uf.size[ra]) > uf.largest {
		uf.largest = int(uf.size[ra])
		uf.largestRoot = ra
	}
	return true
}

// Count returns the current number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// Largest returns the size of the largest set.
func (uf *UnionFind) Largest() int { return uf.largest }

// Adjacency is a compressed-sparse-row adjacency structure for an undirected
// graph on nodes 0..N-1.
type Adjacency struct {
	N       int
	offsets []int32 // len N+1
	nbrs    []int32 // concatenated neighbor lists
}

// AdjacencyFromEdges builds the adjacency structure from an undirected edge
// list. Self-loops are ignored; duplicate edges are kept as given.
func AdjacencyFromEdges(n int, edges []Edge) *Adjacency {
	a := &Adjacency{N: n, offsets: make([]int32, n+1)}
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
	a.nbrs = make([]int32, a.offsets[n])
	cursor := make([]int32, n)
	copy(cursor, a.offsets[:n])
	for _, e := range edges {
		if e.I == e.J {
			continue
		}
		a.nbrs[cursor[e.I]] = e.J
		cursor[e.I]++
		a.nbrs[cursor[e.J]] = e.I
		cursor[e.J]++
	}
	return a
}

// BuildPointGraph constructs the communication graph of the placement at
// transmitting range r: edges between all pairs at distance <= r.
func BuildPointGraph(pts []geom.Point, dim int, r float64) *Adjacency {
	var edges []Edge
	spatial.PairsWithin(pts, dim, r, func(i, j int, _ float64) {
		edges = append(edges, Edge{I: int32(i), J: int32(j)})
	})
	return AdjacencyFromEdges(len(pts), edges)
}

// Neighbors returns the neighbor list of node i (shared storage; callers must
// not modify it).
func (a *Adjacency) Neighbors(i int) []int32 {
	return a.nbrs[a.offsets[i]:a.offsets[i+1]]
}

// Degree returns the number of neighbors of node i.
func (a *Adjacency) Degree(i int) int {
	return int(a.offsets[i+1] - a.offsets[i])
}

// Components labels each node with a component id in [0, k) and returns the
// labels together with the size of each component. Ids are assigned in order
// of each component's smallest node.
func (a *Adjacency) Components() (labels []int32, sizes []int) {
	labels = make([]int32, a.N)
	k, _ := labelComponents(a, labels, make([]int32, a.N))
	sizes = make([]int, k)
	for _, id := range labels {
		sizes[id]++
	}
	return labels, sizes
}

// labelComponents writes each node's component id in [0, k) into labels and
// returns k and the size of the largest component (0 for the empty graph),
// via iterative graph search. labels and stack are caller-provided scratch
// of length a.N.
//
//adhoc:hotpath
func labelComponents(a *Adjacency, labels, stack []int32) (components, largest int) {
	for i := range labels {
		labels[i] = -1
	}
	for start := range labels {
		if labels[start] != -1 {
			continue
		}
		id := int32(components)
		components++
		labels[start] = id
		stack[0] = int32(start)
		size, top := 1, 1
		for top > 0 {
			top--
			u := stack[top]
			for _, v := range a.Neighbors(int(u)) {
				if labels[v] == -1 {
					labels[v] = id
					size++
					stack[top] = v
					top++
				}
			}
		}
		largest = max(largest, size)
	}
	return components, largest
}

// Connected reports whether the graph is connected. Following the paper's
// convention, graphs on fewer than two nodes are trivially connected.
func (a *Adjacency) Connected() bool {
	if a.N <= 1 {
		return true
	}
	_, sizes := a.Components()
	return len(sizes) == 1
}

// LargestComponentSize returns the size of the largest connected component
// (0 for the empty graph).
func (a *Adjacency) LargestComponentSize() int {
	if a.N == 0 {
		return 0
	}
	_, sizes := a.Components()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}

// thresholdRadius returns the smallest float64 r such that r*r >= d2, i.e.
// the exact transmitting range at which a pair with squared distance d2
// becomes a neighbor pair under the d2 <= r*r inclusion rule used by the
// point-graph builders. r*r never decreases as r grows, so that r is
// unique. math.Sqrt is correctly rounded, so it or the float64 above it is
// the answer whenever r*r neither overflows nor loses precision below the
// normal range; otherwise (d2 = +Inf, whose answer is the least r with
// r*r = +Inf, or d2 near the subnormals) a bisection over the bit patterns
// of the non-negative float64s, which order like their values, finds it in
// at most 64 steps. A NaN, negative or zero d2 gives math.Sqrt(d2).
func thresholdRadius(d2 float64) float64 {
	r := math.Sqrt(d2)
	if !(r > 0) {
		return r
	}
	if r*r >= d2 {
		if down := math.Nextafter(r, 0); down*down < d2 {
			return r
		}
	} else if up := math.Nextafter(r, math.Inf(1)); up*up >= d2 {
		return up
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // lo's square < d2 <= hi's
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if m := math.Float64frombits(mid); m*m >= d2 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// PrimMST computes the Euclidean minimum spanning tree of the points with the
// dense O(n^2)-time, O(n)-space Prim algorithm over the points as given
// (array of structs), in Prim's order. It returns the n-1 tree edges (nil
// for n < 2). Edge weights are threshold radii (see thresholdRadius):
// within one ulp of the Euclidean length, chosen so that the point graph at
// r contains the edge exactly when r >= the stored weight. It allocates per
// call and is the independent reference GeoMST is checked against;
// Profile runs its own dense Prim (densePrim) below the dense cutoff.
func PrimMST(pts []geom.Point) []Edge {
	n := len(pts)
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	bestDist := make([]float64, n)
	bestFrom := make([]int32, n)
	dist2 := make([]float64, n)
	edges := make([]Edge, 0, n-1)
	for i := range bestDist {
		bestDist[i] = math.Inf(1)
		bestFrom[i] = -1
	}
	current := int32(0)
	inTree[0] = true
	for len(edges) < n-1 {
		// Compute the current row of the distance matrix with the batched
		// kernel (bitwise the same values as per-pair Dist2 calls), then
		// relax the fringe through it and pick the closest fringe vertex.
		geom.Dist2Batch(dist2, pts[current], pts)
		next := int32(-1)
		nextDist := math.Inf(1)
		for v := int32(0); v < int32(n); v++ {
			if inTree[v] {
				continue
			}
			if d2 := dist2[v]; d2 < bestDist[v] {
				bestDist[v] = d2
				bestFrom[v] = current
			}
			if bestDist[v] < nextDist {
				nextDist = bestDist[v]
				next = v
			}
		}
		inTree[next] = true
		edges = append(edges, Edge{I: bestFrom[next], J: next, D: thresholdRadius(bestDist[next])})
		current = next
	}
	return edges
}

// MSTBottleneck returns the length of the longest MST edge — the critical
// transmitting range of the placement: the minimum r for which the point
// graph is connected. It returns 0 for fewer than two points.
func MSTBottleneck(pts []geom.Point) float64 {
	ws := AcquireWorkspace()
	crit := ws.Critical(pts, 3)
	ReleaseWorkspace(ws)
	return crit
}

// Profile is the connectivity profile of a placement: the exact step
// functions r -> number of components and r -> largest-component size, plus
// the critical radius. It is derived from the MST: running Kruskal over all
// pairwise edges performs a union exactly at each MST edge weight, so the MST
// edges sorted by length are a complete record of the component evolution.
type Profile struct {
	n int
	// mergeRadii[k] is the radius of the k-th merge event (ascending); after
	// event k there are n-(k+1) components.
	mergeRadii []float64
	// largestAfter[k] is the largest component size after event k.
	largestAfter []int32
}

// NewProfile computes the connectivity profile of the points (any
// dimension) from GeoMST's tree, the annulus rounds at every n. Each call
// allocates a fresh profile and scratch; simulation loops use
// graph.Workspace.Profile instead, which reuses all storage across
// snapshots and runs a dense Prim below the dense cutoff, so NewProfile is
// the independent reference that path is checked against.
func NewProfile(pts []geom.Point) *Profile {
	ws := AcquireWorkspace()
	p := ws.replayProfile(len(pts), ws.GeoMST(pts, 3)).Clone()
	ReleaseWorkspace(ws)
	return p
}

// NewProfile1D computes the profile of a 1-dimensional placement in
// O(n log n) using the fact that the 1-D Euclidean MST is the path through
// the sorted coordinates, so the merge radii are exactly the gaps between
// consecutive points.
func NewProfile1D(xs []float64) *Profile {
	n := len(xs)
	if n < 2 {
		return &Profile{n: n}
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	edges := make([]Edge, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = Edge{I: int32(i), J: int32(i + 1), D: sorted[i+1] - sorted[i]}
	}
	return profileFromMST(n, edges)
}

// profileFromMST replays the n-1 MST edges in length order through a
// union-find, recording the component evolution.
func profileFromMST(n int, mst []Edge) *Profile {
	p := &Profile{n: n}
	if n < 2 {
		return p
	}
	edges := make([]Edge, len(mst))
	copy(edges, mst)
	slices.SortFunc(edges, cmpEdgeByD)
	p.mergeRadii = make([]float64, 0, n-1)
	p.largestAfter = make([]int32, 0, n-1)
	replayMST(p, NewUnionFind(n), edges)
	return p
}

// cmpEdgeByD orders edges by weight for the Kruskal-style profile replay.
func cmpEdgeByD(a, b Edge) int {
	switch {
	case a.D < b.D:
		return -1
	case a.D > b.D:
		return 1
	}
	return 0
}

// replayMST replays weight-sorted MST edges through uf, appending one merge
// event per union to the profile's event slices.
func replayMST(p *Profile, uf *UnionFind, sorted []Edge) {
	for _, e := range sorted {
		if uf.Union(e.I, e.J) {
			p.mergeRadii = append(p.mergeRadii, e.D)
			p.largestAfter = append(p.largestAfter, int32(uf.Largest()))
		}
	}
}

// Clone returns an independent copy of the profile. The workspace snapshot
// pipeline returns transient profiles backed by reusable storage; callers
// that retain a profile past the next workspace call must clone it first.
func (p *Profile) Clone() *Profile {
	return &Profile{
		n:            p.n,
		mergeRadii:   slices.Clone(p.mergeRadii),
		largestAfter: slices.Clone(p.largestAfter),
	}
}

// Critical returns the critical transmitting range: the minimum r at which
// the placement's communication graph is connected (0 for n < 2).
func (p *Profile) Critical() float64 {
	if len(p.mergeRadii) == 0 {
		return 0
	}
	return p.mergeRadii[len(p.mergeRadii)-1]
}

// mergesAt returns how many merge events occur at radius <= r.
func (p *Profile) mergesAt(r float64) int {
	return sort.SearchFloat64s(p.mergeRadii, math.Nextafter(r, math.Inf(1)))
}

// ComponentsAt returns the number of connected components at transmitting
// range r.
func (p *Profile) ComponentsAt(r float64) int {
	if p.n == 0 {
		return 0
	}
	return p.n - p.mergesAt(r)
}

// ConnectedAt reports whether the placement is connected at range r.
func (p *Profile) ConnectedAt(r float64) bool {
	return p.ComponentsAt(r) <= 1
}

// LargestAt returns the size of the largest connected component at range r.
func (p *Profile) LargestAt(r float64) int {
	if p.n == 0 {
		return 0
	}
	k := p.mergesAt(r)
	if k == 0 {
		return 1
	}
	return int(p.largestAfter[k-1])
}

// LargestStep is one growth event of a placement's largest component: from
// range R on, the largest component has Size nodes.
type LargestStep struct {
	R    float64
	Size int32
}

// LargestCurve is the step function r -> largest-component size of a
// placement of at least one node, kept as the merge events at which the
// largest component grows, in ascending R. Once the giant component forms it
// absorbs the rest in a few hundred merges (arXiv:0806.2351), so the curve
// holds a small share of the profile's n-1 events: about 560 of 16383 on a
// uniform placement of 16384 nodes. Its last step is the critical radius,
// where the size reaches n.
type LargestCurve []LargestStep

// AppendLargestCurve appends the profile's largest-component growth events
// to dst and returns the extended slice. dst may be caller-owned storage
// reused from snapshot to snapshot, so a transient profile's curve is kept
// without cloning the profile.
func (p *Profile) AppendLargestCurve(dst LargestCurve) LargestCurve {
	size := int32(1)
	for k, s := range p.largestAfter {
		if s > size {
			size = s
			dst = append(dst, LargestStep{R: p.mergeRadii[k], Size: s})
		}
	}
	return dst
}

// LargestAt returns Profile.LargestAt(r) of the profile the curve came from
// (n >= 1). A step counts when its radius is below Nextafter(r, +Inf), the
// predicate of Profile.mergesAt, so -0 radii count at r = 0 and +Inf radii
// count at no r.
func (c LargestCurve) LargestAt(r float64) int {
	next := math.Nextafter(r, math.Inf(1))
	k := sort.Search(len(c), func(i int) bool { return c[i].R >= next })
	if k == 0 {
		return 1
	}
	return int(c[k-1].Size)
}
