package graph

import (
	"fmt"
	"math"
	"slices"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
)

// The dense cutoffs are the largest point counts, per dimension, at which
// Profile and Critical run a dense Prim (densePrim, denseCritical) instead
// of the annulus rounds: up to there its ~n^2/2 slab pair visits cost less
// than the grid builds, pair scans and candidate sorts they replace.
// Measured with the BenchmarkSnapshotProfileN* rows in bench_test.go;
// DESIGN.md "Fallback threshold" has the curve.
const (
	geoMSTDenseCutoff2D = 192
	geoMSTDenseCutoff3D = 240
)

// denseCutoff is the dense cutoff for dim-dimensional placements.
func denseCutoff(dim int) int {
	if dim >= 3 {
		return geoMSTDenseCutoff3D
	}
	return geoMSTDenseCutoff2D
}

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

// bucketReplayCutoff is the batch length at or below which bucketReplay
// sorts the batch whole: distributing it into buckets costs more than the
// sort it saves on short batches.
const bucketReplayCutoff = 256

// bucketReplay replays one round's candidate batch, whose squared distances
// lie in (lo2, r2], through Kruskal's union-find in strict candLess order,
// appending every accepted edge to ws.edges, then joins the kept edges at or
// below r2. It reports whether the forest became a single tree (the replay
// stops there).
//
// The batch is distributed in place into about len/16 buckets by the
// monotone map ⌊(d2 − lo)·nb/(r2 − lo)⌋, lo = max(lo2, 0), so equal squared
// distances share a bucket and every bucket sorts before the next. The
// buckets are then walked in order: a bucket's candidates whose endpoints
// the earlier buckets already joined are dropped — Kruskal would reject
// them, as components only grow — and the rest are sorted and accepted.
// The accepted edges are therefore exactly those of sorting the whole
// batch first, and most of a round's candidates are dropped unsorted. A
// short batch, or one whose bound is not finite (the overflow round), is
// sorted whole.
//
//adhoc:hotpath
func (ws *Workspace) bucketReplay(s []candidate, lo2, r2 float64) bool {
	lo := max(lo2, 0)
	span := r2 - lo
	if len(s) <= bucketReplayCutoff || !(span > 0 && span <= math.MaxFloat64) {
		sortCandidates(s)
		for _, c := range s {
			if ws.accept(c) {
				return true
			}
		}
		return ws.mergeKept(candidate{d2: r2, i: math.MaxInt32, j: math.MaxInt32})
	}
	nb := len(s) / 16
	m := bucketMap{lo: lo, scale: float64(nb) / span, last: nb - 1}
	ws.buckets = grow(ws.buckets, 2*nb)
	head, end := ws.buckets[:nb], ws.buckets[nb:]
	clear(end)
	for _, c := range s {
		end[m.of(c.d2)]++
	}
	var at int32
	for b, cnt := range end {
		head[b] = at
		at += cnt
		end[b] = at
	}
	// American flag permutation: fill each bucket in turn, sending every
	// foreign candidate to the next free slot of its own bucket.
	for b := range nb {
		for head[b] < end[b] {
			c := s[head[b]]
			for k := m.of(c.d2); k != b; k = m.of(c.d2) {
				s[head[k]], c = c, s[head[k]]
				head[k]++
			}
			s[head[b]] = c
			head[b]++
		}
	}
	start := int32(0)
	for _, stop := range end {
		bucket := s[start:stop]
		start = stop
		k := 0
		for _, c := range bucket {
			if ws.uf.Find(c.i) != ws.uf.Find(c.j) {
				bucket[k] = c
				k++
			}
		}
		sortCandidates(bucket[:k])
		for _, c := range bucket[:k] {
			if ws.accept(c) {
				return true
			}
		}
	}
	return ws.mergeKept(candidate{d2: r2, i: math.MaxInt32, j: math.MaxInt32})
}

// bucketMap is bucketReplay's monotone bucket index ⌊(d2 − lo)·scale⌋;
// every d2 at or past the last bucket's start, r2 among them, maps to the
// last bucket.
type bucketMap struct {
	lo, scale float64
	last      int
}

func (m bucketMap) of(d2 float64) int {
	if f := (d2 - m.lo) * m.scale; f < float64(m.last) {
		return int(f)
	}
	return m.last
}

// accept offers one candidate to Kruskal after joining the kept edges that
// sort before it, and reports whether the tree is complete.
func (ws *Workspace) accept(c candidate) bool {
	if len(ws.kept) > 0 && ws.mergeKept(c) {
		return true
	}
	return ws.join(c)
}

// mergeKept joins, in order, the edges of the sorted kept stream (ws.kept)
// that sort before c, and reports whether the tree completed.
func (ws *Workspace) mergeKept(c candidate) bool {
	for len(ws.kept) > 0 && candLess(ws.kept[0], c) {
		e := ws.kept[0]
		ws.kept = ws.kept[1:]
		if ws.join(e) {
			return true
		}
	}
	return false
}

// join unites the endpoints of one edge, appending it to the tree when they
// were in different components, and reports whether the tree is complete.
func (ws *Workspace) join(c candidate) bool {
	if !ws.uf.Union(c.i, c.j) {
		return false
	}
	ws.edges = append(ws.edges, Edge{I: c.i, J: c.j, D: thresholdRadius(c.d2)})
	return ws.uf.Count() == 1
}

// labelRoots sets ws.labels[i] to the union-find root of point i for the
// first n points.
func (ws *Workspace) labelRoots(n int) {
	ws.labels = grow(ws.labels, n)
	for i := range ws.labels {
		ws.labels[i] = ws.uf.Find(int32(i))
	}
}

// minPairs appends to ws.cand the k-d tree's per-label-pair minima over the
// annulus (lo2, r] among pairs whose endpoints differ in frag, with
// ws.labels (set by labelRoots) as the labels. The query itself enforces
// the annulus and the distinct labels, so its visitor only appends.
func (ws *Workspace) minPairs(frag []int32, lo2, r float64) {
	if ws.minVisitor == nil {
		ws.minVisitor = func(i, j int, d2 float64) {
			ws.cand = append(ws.cand, candidate{d2: d2, i: int32(i), j: int32(j)})
		}
	}
	ws.kd.MinPairsByLabel(ws.labels, frag, lo2, r, ws.minVisitor)
}

// outsiderPairs is the grid annulus round once one component holds more
// than half the points: ws.labels holds every point's root, and only the
// points outside the largest component are scanned, each over its whole
// 3^d cell neighborhood. Every pair that can still become a tree edge has
// an endpoint outside the largest component, and ws.outsiderVisitor keeps
// the same pairs, (min, max)-ordered, that ForEachPairWithin and
// ws.batchVisitor keep (see GeoMST).
//
//adhoc:hotpath
func (ws *Workspace) outsiderPairs(r float64) {
	big := ws.uf.largestRoot
	for i, l := range ws.labels {
		if l != big {
			ws.ix.ForEachNear(int32(i), r, ws.outsiderVisitor)
		}
	}
}

// GeoMST computes the Euclidean minimum spanning tree of the points by a
// grid- or k-d-tree-accelerated filtered Kruskal over doubling annuli
// (mstRounds), near-linear in practice for the uniform and mobility-evolved
// placements the simulator produces. Edge weights are threshold radii
// exactly as in PrimMST.
//
// The tree comes in the strict-(d2, i, j) Kruskal edge sequence over all
// pairs, which is unique even when distances tie (cross-validated in the
// tests), at every n: it is the only MST output whose edge identities leave
// this package. Profile and Critical, which read only the tree's weights and
// its components at each radius, run a dense Prim below the dense cutoff
// instead. The annulus rounds start near the mean point spacing (the
// nearest-neighbor scale; see annulusMST) and double the radius until the
// tree completes.
//
// GeoMST panics when a point coordinate is NaN or infinite (the bounding
// extent is then not finite), since no radius can connect such a point.
func GeoMST(pts []geom.Point, dim int) []Edge {
	ws := AcquireWorkspace()
	edges := slices.Clone(ws.GeoMST(pts, dim))
	ReleaseWorkspace(ws)
	return edges
}

// GeoMST is the workspace form of the package-level GeoMST: all scratch
// comes from the workspace and the returned edge slice is transient
// (overwritten by the next MST or profile call on this workspace).
func (ws *Workspace) GeoMST(pts []geom.Point, dim int) []Edge {
	if edges, dense := ws.mst(pts, dim); !dense {
		return edges
	}
	extent, dims := spatial.BoundingExtent(pts)
	return ws.annulusMST(pts, dim, extent, dims)
}

// mst is the MST preamble shared by every 2-D/3-D path: it returns the
// tree's edges in strict order or, with dense set, nothing, leaving pts (n
// >= 2 finite points, not all coincident, n at most the dense cutoff) to
// the caller — densePrim for the profile's tree, denseCritical for its
// largest weight alone, annulusMST for GeoMST's edge sequence.
func (ws *Workspace) mst(pts []geom.Point, dim int) (edges []Edge, dense bool) {
	n := len(pts)
	ws.edges = ws.edges[:0]
	ws.kdBuilt = false
	if n < 2 {
		return nil, false
	}
	extent, dims := spatial.BoundingExtent(pts)
	if math.IsNaN(extent) || math.IsInf(extent, 0) {
		panic(fmt.Sprintf("graph: GeoMST over %d points with a non-finite bounding extent %v (NaN or infinite coordinates)", n, extent))
	}
	if extent == 0 {
		// All points coincident: the MST is a star of zero-weight edges.
		for i := 1; i < n; i++ {
			ws.edges = append(ws.edges, Edge{I: 0, J: int32(i), D: 0})
		}
		return ws.edges, false
	}
	if n <= denseCutoff(dim) {
		return nil, true
	}
	return ws.annulusMST(pts, dim, extent, dims), false
}

// gridStart2D is the 2-D grid rounds' starting radius in units of the mean
// point spacing (see annulusMST).
const gridStart2D = 1.3

// annulusMST is mst past its preamble: the strict-order tree of pts (n >= 2
// finite points whose bounding extent, positive, spans dims axes) by the
// annulus rounds on the backend the workspace resolves.
func (ws *Workspace) annulusMST(pts []geom.Point, dim int, extent float64, dims int) []Edge {
	// The mean nearest-neighbor scale of the placement: most points see
	// their closest neighbor within a small multiple of it, so the first
	// annuli already resolve the bulk of the tree.
	r := extent / math.Pow(float64(len(pts)), 1/float64(dims))

	// The backend is resolved once per MST at the starting radius. The k-d
	// tree is radius-free — built once here — and its rounds use
	// MinPairsByLabel: only the minimal candidate per component pair inside
	// the annulus, which is exactly the subset of the full enumeration that
	// Kruskal can ever accept (every other candidate between the same
	// components sorts after that minimum and finds its endpoints already
	// united). The grid path enumerates every cross-component annulus pair
	// (from the outsiders only, once a giant component exists). Both feed
	// the replay the same accepted-edge sequence, so the backend cannot
	// change the tree — it removes the clustered placements' quadratic trap,
	// where bridging rounds between k-point islands enumerate and sort k^2
	// cross pairs to use one.
	useTree := ws.resolveBackend(pts, dim, r) == spatial.BackendKDTree
	if useTree {
		ws.kd.Rebuild(pts, dim)
		ws.kdBuilt = true
		// Start the rounds well below the global mean spacing: the tree is
		// picked for placements whose dense regions sit far above the global
		// density, and rounds only dedup candidates between components that
		// already exist — entering a dense region at its own spacing lets
		// its components coalesce in cheap small annuli before the annulus
		// that covers the whole region arrives. Any starting radius is
		// exact (the annuli stay disjoint and increasing); this one only
		// adds three near-empty rounds when the placement is uniform after
		// all. The grid starts at or just above the global scale, where its
		// cells are sized.
		r /= 8
	} else if dims == 2 {
		// At the mean spacing a uniform planar placement has mean degree
		// π, below the continuum-percolation threshold (about 4.51), so
		// round one would leave thousands of small components and round
		// two would rescan every pair at twice the radius. At 1.3 times it
		// the mean degree is about 5.3: round one leaves a component above
		// n/2, and every later round is an outsider round. In 3-D the mean
		// spacing already gives mean degree about 4.2, above that
		// threshold (about 2.7). The reserve holds round one's expected
		// pairs plus a tenth, so a fresh workspace does not grow the batch
		// by doubling.
		r *= gridStart2D
		if want := int(float64(len(pts)) * math.Pi * gridStart2D * gridStart2D / 2 * 1.1); cap(ws.cand) < want {
			ws.cand = make([]candidate, 0, want)
		}
	}
	return ws.mstRounds(pts, dim, r, useTree, nil, nil)
}

// bottleneck returns the largest weight of an edge list, the critical radius
// when the edges are an MST. The trees mst returns have no NaN or -0
// weight, so their maximum has the bits of the profile's last merge radius
// (criticalGap guards the 1-D gaps, which can have both).
func bottleneck(edges []Edge) float64 {
	crit := 0.0
	for _, e := range edges {
		crit = max(crit, e.D)
	}
	return crit
}

// primSlabs is the dense Prim's scratch in structure-of-arrays form: one
// coordinate slab per axis, each slot's point index (id) and the float64
// bits of its least squared distance to the tree so far (key), which a
// picked slot keeps from its pick. Picking a point swap-removes it from the
// fringe (the points not yet in the tree), so the fringe shrinks and one
// MST visits about n^2/2 pairs; the pick then moves into the slot the
// fringe frees (see critical2). tree is the spanning tree the last
// denseCritical Prim found, which its certificate reuses.
type primSlabs struct {
	x, y, z []float64
	id      []int32
	key     []uint64
	tree    spanTree
}

// load puts all n points into the coordinate slabs: point 0, the dense
// Prim's root, in the last slot and the others in index order before it,
// each slot's point in id. It reports whether the placement is flat (every
// Z equal, so Z never enters a squared distance).
func (s *primSlabs) load(pts []geom.Point) (flat bool) {
	n := len(pts)
	s.x, s.y, s.z, s.id = grow(s.x, n), grow(s.y, n), grow(s.z, n), grow(s.id, n)
	r := pts[0]
	flat = true
	for k, p := range pts[1:] {
		s.x[k], s.y[k], s.z[k], s.id[k] = p.X, p.Y, p.Z, int32(k+1)
		flat = flat && p.Z == r.Z
	}
	s.x[n-1], s.y[n-1], s.z[n-1], s.id[n-1] = r.X, r.Y, r.Z, 0
	return flat
}

// prim runs the dense Prim over the points load or certify put in the
// slabs, flat as they reported, and returns the largest key it picked. It
// leaves an MST with its weights in slots 0..n-2: the pick in slot l is
// point id[l], joined to the point in slot tree.par[l] at squared distance
// key[l] (as bits). It writes no other part of tree.
func (s *primSlabs) prim(flat bool) uint64 {
	n := len(s.x)
	s.key = grow(s.key, n)
	for k := range s.key {
		s.key[k] = math.MaxUint64
	}
	s.tree.par = grow(s.tree.par, n)
	if flat {
		return s.critical2()
	}
	return s.critical3()
}

// densePrim returns in ws.edges, sorted by candLess, the MST the dense Prim
// finds over pts (n >= 2 finite points), each edge from the pick's parent,
// offered in pick order. The Prim breaks ties however its slot order falls,
// so the tree need not be strict Kruskal's; Profile and ProfileKinetic, its
// callers, read only what it shares with every MST of pts: the sorted
// weight multiset (the merge radii) and the components at every radius,
// which the profile's queries see only at the ends of tied runs. It calls
// no keep, so the tree denseCritical keeps stays as it was. The sort hands
// replayProfile a sequence already in weight order.
func (ws *Workspace) densePrim(pts []geom.Point) []Edge {
	s := &ws.prim
	s.prim(s.load(pts))
	ws.cand = ws.cand[:0]
	for l := len(pts) - 2; l >= 0; l-- {
		ws.cand = append(ws.cand, candidate{d2: math.Float64frombits(s.key[l]), i: s.id[s.tree.par[l]], j: s.id[l]})
	}
	sortCandidates(ws.cand)
	for _, c := range ws.cand {
		ws.edges = append(ws.edges, Edge{I: c.i, J: c.j, D: thresholdRadius(c.d2)})
	}
	return ws.edges
}

// denseCritical returns the critical radius of pts (n >= 2 finite points,
// not all coincident): the largest weight of the tree densePrim would
// return, bit for bit. It first tries to certify that weight from the
// spanning tree the workspace's last denseCritical Prim kept (certify),
// which costs a pass over the tree and a scan across its longest edge's cut
// and is exact whatever tree is kept: consecutive mobility steps move each
// point a little, so the last step's tree mostly still proves the answer.
// When it does not, or the kept tree spans another number of points, the
// Prim runs over the slabs certify (or load) filled, and the tree it
// records is kept for the next call. thresholdRadius is monotone, so
// converting the Prim's largest squared distance gives densePrim's largest
// weight.
func (ws *Workspace) denseCritical(pts []geom.Point) float64 {
	s := &ws.prim
	n := len(pts)
	var flat bool
	if len(s.tree.order) == n {
		u, f, ok := s.certify(pts)
		if ok {
			ws.stats.CriticalCertified++
			return thresholdRadius(u)
		}
		flat = f
		s.id = append(s.id[:0], s.tree.order...)
	} else {
		flat = s.load(pts)
	}
	worst := s.prim(flat)
	s.tree.keep(s.id)
	return thresholdRadius(math.Float64frombits(worst))
}

// critical2 is the dense Prim (prim) over a flat placement of the points in
// the slabs (slot k holds point id[k]), grown from the root in the last
// slot: each round relaxes the fringe, the slots before the picked ones,
// through the point picked last and picks the fringe point nearest the
// tree, and it returns the largest picked key. Keys are the bits of
// squared distances, which are never negative or NaN, and such bits order
// like the floats, so relaxing is an integer min; the start key MaxUint64
// sits above every one of them, +Inf included. The loop relaxes four slots
// at a time and the pick keeps two running minima, one over the slots 0
// and 2 of each four and one over the slots 1 and 3; the last one to three
// slots join the first, and the two merge after the loop. The squared
// distances go through geom.SumSq2, bitwise the pair scans' geom.Dist2
// values on every GOARCH (a Z difference of 0 adds +0, which changes no sum
// of squares).
//
// A pick swap-removes its slot and moves into the slot the fringe frees,
// so the picks fill the slabs from the back: the root last, each pick in
// the slot before the one picked before it. The pick's parent is then a
// picked point at exactly its key, and the search for one starts at the
// pick before it and walks back towards the root, which on the paper's
// placements ends within a few slots. tree.par[l] gets the slot of the
// parent of the pick in slot l and key[l] its key, so id, tree.par and key
// hold an MST with its weights.
//
//adhoc:hotpath
func (s *primSlabs) critical2() uint64 {
	n := len(s.x)
	ux, uy := s.x[n-1], s.y[n-1]
	worst := uint64(0)
	for m := n - 1; m > 0; m-- {
		xs, ys, keys := s.x[:m], s.y[:m], s.key[:m]
		k0, k1 := uint64(math.MaxUint64), uint64(math.MaxUint64)
		i0, i1 := 0, 0
		k := 0
		for ; k+3 < m; k += 4 {
			a := min(keys[k], math.Float64bits(geom.SumSq2(ux-xs[k], uy-ys[k])))
			b := min(keys[k+1], math.Float64bits(geom.SumSq2(ux-xs[k+1], uy-ys[k+1])))
			c := min(keys[k+2], math.Float64bits(geom.SumSq2(ux-xs[k+2], uy-ys[k+2])))
			d := min(keys[k+3], math.Float64bits(geom.SumSq2(ux-xs[k+3], uy-ys[k+3])))
			keys[k], keys[k+1], keys[k+2], keys[k+3] = a, b, c, d
			if a < k0 {
				k0, i0 = a, k
			}
			if b < k1 {
				k1, i1 = b, k+1
			}
			if c < k0 {
				k0, i0 = c, k+2
			}
			if d < k1 {
				k1, i1 = d, k+3
			}
		}
		for ; k < m; k++ {
			a := min(keys[k], math.Float64bits(geom.SumSq2(ux-xs[k], uy-ys[k])))
			keys[k] = a
			if a < k0 {
				k0, i0 = a, k
			}
		}
		if k1 < k0 {
			k0, i0 = k1, i1
		}
		worst = max(worst, k0)
		ux, uy = xs[i0], ys[i0]
		l := m - 1
		u := s.id[i0]
		xs[i0], ys[i0], keys[i0], s.id[i0] = xs[l], ys[l], keys[l], s.id[l]
		xs, ys = s.x, s.y
		xs[l], ys[l], keys[l], s.id[l] = ux, uy, k0, u
		j := m
		for j < n-1 && math.Float64bits(geom.SumSq2(xs[j]-ux, ys[j]-uy)) != k0 {
			j++
		}
		s.tree.par[l] = int32(j)
	}
	return worst
}

// critical3 is critical2 for placements that are not flat.
//
//adhoc:hotpath
func (s *primSlabs) critical3() uint64 {
	n := len(s.x)
	ux, uy, uz := s.x[n-1], s.y[n-1], s.z[n-1]
	worst := uint64(0)
	for m := n - 1; m > 0; m-- {
		xs, ys, zs, keys := s.x[:m], s.y[:m], s.z[:m], s.key[:m]
		k0, k1 := uint64(math.MaxUint64), uint64(math.MaxUint64)
		i0, i1 := 0, 0
		k := 0
		for ; k+3 < m; k += 4 {
			a := min(keys[k], math.Float64bits(geom.SumSq(ux-xs[k], uy-ys[k], uz-zs[k])))
			b := min(keys[k+1], math.Float64bits(geom.SumSq(ux-xs[k+1], uy-ys[k+1], uz-zs[k+1])))
			c := min(keys[k+2], math.Float64bits(geom.SumSq(ux-xs[k+2], uy-ys[k+2], uz-zs[k+2])))
			d := min(keys[k+3], math.Float64bits(geom.SumSq(ux-xs[k+3], uy-ys[k+3], uz-zs[k+3])))
			keys[k], keys[k+1], keys[k+2], keys[k+3] = a, b, c, d
			if a < k0 {
				k0, i0 = a, k
			}
			if b < k1 {
				k1, i1 = b, k+1
			}
			if c < k0 {
				k0, i0 = c, k+2
			}
			if d < k1 {
				k1, i1 = d, k+3
			}
		}
		for ; k < m; k++ {
			a := min(keys[k], math.Float64bits(geom.SumSq(ux-xs[k], uy-ys[k], uz-zs[k])))
			keys[k] = a
			if a < k0 {
				k0, i0 = a, k
			}
		}
		if k1 < k0 {
			k0, i0 = k1, i1
		}
		worst = max(worst, k0)
		ux, uy, uz = xs[i0], ys[i0], zs[i0]
		l := m - 1
		u := s.id[i0]
		xs[i0], ys[i0], zs[i0], keys[i0], s.id[i0] = xs[l], ys[l], zs[l], keys[l], s.id[l]
		xs, ys, zs = s.x, s.y, s.z
		xs[l], ys[l], zs[l], keys[l], s.id[l] = ux, uy, uz, k0, u
		j := m
		for j < n-1 && math.Float64bits(geom.SumSq(xs[j]-ux, ys[j]-uy, zs[j]-uz)) != k0 {
			j++
		}
		s.tree.par[l] = int32(j)
	}
	return worst
}

// mstRounds is the annulus Kruskal behind GeoMST and the kinetic repair: it
// builds the strict-(d2, i, j)-order MST of pts into ws.edges, in that
// order. Round k offers the candidates in the annulus (r_{k-1}, r_k], r_0 =
// r, doubling until the tree completes: with useTree the k-d tree's
// per-label-pair minima among pairs whose endpoints differ in frag (nil:
// the round-start labels; ws.kd must be current), otherwise the grid's
// cross-component pairs, from the outsiders only once a giant component
// exists (dim is read only there). kept is a sorted stream of edges trusted
// without a query (the repair's kept forest; none for GeoMST). It never
// enters the batch: accept merges it ahead of each candidate, and each
// round drains it up to r_k^2, without which a round whose query emits
// nothing would never progress. Annuli are disjoint and increasing, so
// Kruskal sees every candidate once, in globally sorted order, from any
// starting radius. A round whose r*r overflows is the last: it takes
// every pair above the previous bound.
func (ws *Workspace) mstRounds(pts []geom.Point, dim int, r float64, useTree bool, kept []candidate, frag []int32) []Edge {
	n := len(pts)
	ws.uf.Reset(n)
	ws.edges = ws.edges[:0]
	ws.kept = kept
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
		// The directed outsider scan sees a pair of two outsiders from both
		// ends; only the smaller index's scan keeps it. A pair with one end
		// in the largest component is seen once, from the outsider.
		ws.outsiderVisitor = func(i, j int, d2 float64) {
			if d2 <= ws.batchPrevR2 {
				return
			}
			lj := ws.labels[j]
			if lj == ws.labels[i] {
				return
			}
			if j < i {
				if lj != ws.uf.largestRoot {
					return
				}
				i, j = j, i
			}
			ws.cand = append(ws.cand, candidate{d2: d2, i: int32(i), j: int32(j)})
		}
	}

	// The first round must admit d2 == 0 (coincident points), so the
	// initial exclusion bound sits below every squared distance.
	prevR2 := -1.0
	for ws.uf.Count() > 1 {
		if math.IsInf(r*r, 1) {
			// The pairs left beyond r may have squared distances of +Inf
			// too, and no later annulus (+Inf, ...] would admit them: this
			// round takes every pair above prevR2, which completes the tree.
			r = math.MaxFloat64
		}
		ws.cand = ws.cand[:0]
		ws.batchPrevR2 = prevR2
		switch {
		case useTree:
			ws.labelRoots(n)
			f := frag
			if f == nil {
				f = ws.labels
			}
			ws.minPairs(f, prevR2, r)
		case 2*(n-ws.uf.Largest()) < n:
			// A full scan visits about half the 3^d stencil per point, an
			// outsider scan the whole stencil per outsider: the outsiders
			// win once they are fewer than half the points.
			ws.ix.Rebuild(pts, dim, r)
			ws.labelRoots(n)
			ws.outsiderPairs(r)
		default:
			ws.ix.Rebuild(pts, dim, r)
			ws.ix.ForEachPairWithin(r, ws.batchVisitor)
		}
		ws.stats.MSTRounds++
		ws.stats.MSTCandidates += uint64(len(ws.cand))
		// The annulus filter reuses the exact r*r the queries compared
		// against, so the next round's exclusion is the precise complement
		// of this round's inclusion.
		r2 := r * r
		ws.bucketReplay(ws.cand, prevR2, r2)
		prevR2 = r2
		r *= 2
	}
	return ws.edges
}
