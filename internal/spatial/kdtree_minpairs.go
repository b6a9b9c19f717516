package spatial

// MinPairsByLabel — the dual-tree Borůvka core of the k-d tree backend.
//
// The filtered-Kruskal MST only ever *uses* one candidate per pair of
// union-find components: the minimal one in the strict (d2, i, j) order. Any
// other candidate between the same components reaches the Kruskal replay
// after that minimum and finds its endpoints already connected, so
// enumerating it is pure waste — and on islands placements that waste is the
// whole bill: a bridging round between two 256-point clusters enumerates and
// sorts 65k cross pairs to keep one. This query returns exactly the per-
// label-pair minima inside the annulus, restricted to pairs whose endpoints
// lie in different parts of a second partition (frag), and prunes with six
// facts the flat pair enumeration cannot use:
//
//   - a subtree whose points all share one label contains no cross-label
//     pairs (kills intra-island work at any radius);
//   - a subtree whose points all share one frag value contains no crossing
//     pairs, and two such subtrees sharing the same value have none between
//     them either;
//   - a pair of single-label subtrees needs no descent once its box distance
//     exceeds the pair's current best (turns the 65k-pair island-vs-island
//     scan into a bichromatic closest-pair search);
//   - a point of a mixed leaf facing a single-label subtree has one label
//     pair with all of it, so it searches that subtree best-first for its
//     nearest partner against that pair's current best, instead of the
//     whole subtree being scanned leaf pair by leaf pair (the late rounds,
//     where a straggler makes a leaf beside an island mixed);
//   - a point farther than r from the other leaf's box has no annulus pair
//     in it (the point–box bound of the mixed leaf×leaf scans);
//   - the annulus and box bounds of the plain queries still apply.
//
// GeoMST passes its labels as frag, which makes the restriction vacuous.
// The kinetic MST repair (graph.Workspace) passes the kept-forest fragments:
// every new tree edge must cross between them, since a pair inside one kept
// fragment still has its old tree path intact, and that path certifies it
// non-minimal.
//
// The returned minima are exact per-pair minima over the full crossing
// annulus pair set (pruning uses strict > against rounding-monotone lower
// bounds, so a box that could hold the minimum — or an (i, j)-smaller tie —
// is never skipped). Feeding them to the same sort + replay therefore unions
// the exact edge sequence the full candidate enumeration would, which is
// what keeps the tree and grid MST paths bit-identical.

import (
	"math"

	"adhocnet/internal/geom"
)

// kdMixed marks a subtree whose points carry more than one value of the
// annotated partition (labels or frag, both non-negative).
const kdMixed = -1

// kdBest is the current minimal candidate for one label pair.
type kdBest struct {
	d2   float64
	i, j int32
}

// noPair is the sentinel a label pair's best starts from. Point indices
// are below MaxInt32, so every real pair comes first in the strict order,
// one whose squared distance overflows to +Inf included.
var noPair = kdBest{d2: math.Inf(1), i: math.MaxInt32, j: math.MaxInt32}

// bestLess is the strict (d2, i, j) candidate order of the MST's Kruskal
// replay; MinPairsByLabel minimizes in this order so ties in distance
// resolve identically to the full enumeration.
func bestLess(a, b kdBest) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// improve replaces b with the candidate pair (i, j) at squared distance d2,
// stored as (min, max), when that comes first in the strict order.
func (b *kdBest) improve(i, j int32, d2 float64) {
	if i > j {
		i, j = j, i
	}
	if c := (kdBest{d2: d2, i: i, j: j}); bestLess(c, *b) {
		*b = c
	}
}

// minPairsScratch is the per-query state of MinPairsByLabel, owned by the
// tree so repeated rounds allocate nothing: the per-node purity annotations
// and an open-addressed (label pair) -> best-candidate table.
type minPairsScratch struct {
	labels, frag []int32 // caller's partitions, valid during one query

	// Per node: the single label (pure) or frag value (pureF) of its
	// subtree, or kdMixed. pureF aliases pure when frag is labels;
	// otherwise it is fragPure, which is never pure's buffer — sharing it
	// would let a crossing query overwrite the label annotation.
	pure, pureF []int32
	fragPure    []int32

	keys []uint64 // open addressing; 0 is empty, stored key is pair+1
	vals []int32  // index into best, parallel to keys
	best []kdBest
	mask uint64
	lo2  float64
	r2   float64

	// One-entry lookup memo: leaf scans meet the same label pair in runs
	// (a leaf holds points of a few coalescing components), so most probes
	// repeat the previous key. Holds an index, not a pointer — best may
	// be reallocated by an intervening insert.
	lastKey uint64
	lastIdx int32
}

// MinPairsByLabel visits, for every unordered pair of distinct labels with
// at least one annulus pair (lo2 < d2 <= r*r) whose endpoints carry
// different frag values, the minimal such pair in the strict (d2, i, j)
// order — and nothing else. labels and frag must have one entry per indexed
// point; their values must be non-negative and are opaque (only ==/!=
// matters). Passing labels as frag drops the restriction. Visit order is
// unspecified (callers sort, as they do for the flat enumeration).
func (t *KDTree) MinPairsByLabel(labels, frag []int32, lo2, r float64, visit PairVisitor) {
	t.stats.MinPairsRounds++
	if r < 0 || t.root < 0 || len(t.pts) < 2 {
		return
	}
	s := &t.mp
	s.labels, s.frag = labels, frag
	s.lo2 = lo2
	s.r2 = r * r
	s.pure = t.annotate(labels, s.pure)
	if &frag[0] == &labels[0] {
		s.pureF = s.pure
	} else {
		s.fragPure = t.annotate(frag, s.fragPure)
		s.pureF = s.fragPure
	}
	if len(s.keys) == 0 {
		s.keys = make([]uint64, 1024)
		s.vals = make([]int32, 1024)
	}
	clear(s.keys)
	s.best = s.best[:0]
	s.mask = uint64(len(s.keys) - 1)
	s.lastKey = 0
	t.minSelf(t.root)
	for _, b := range s.best {
		if b != noPair { // skip pruning probes that never saw a qualifying pair
			emitOrdered(int(b.i), int(b.j), b.d2, visit)
		}
	}
	s.labels, s.frag = nil, nil
}

// annotate returns out, resized to the node count, holding each subtree's
// single value of vals, or kdMixed when it spans several. Children are
// appended after their parent during build, so one reverse pass visits
// children first.
func (t *KDTree) annotate(vals, out []int32) []int32 {
	if cap(out) < len(t.nodes) {
		out = make([]int32, len(t.nodes))
	}
	out = out[:len(t.nodes)]
	for id := len(t.nodes) - 1; id >= 0; id-- {
		nd := &t.nodes[id]
		if nd.left >= 0 {
			if l, r := out[nd.left], out[nd.right]; l == r {
				out[id] = l
			} else {
				out[id] = kdMixed
			}
			continue
		}
		v := vals[t.idx[nd.lo]]
		for x := nd.lo + 1; x < nd.hi; x++ {
			if vals[t.idx[x]] != v {
				v = kdMixed
				break
			}
		}
		out[id] = v
	}
	return out
}

// bestFor returns the table entry of the label pair (la, lb), inserting
// noPair on first sight. The table doubles at 3/4 load; steady state
// reuses the grown storage.
func (s *minPairsScratch) bestFor(la, lb int32) *kdBest {
	key := pairKey(la, lb)
	if key == s.lastKey {
		return &s.best[s.lastIdx]
	}
	h := s.slot(key)
	if s.keys[h] != key {
		if 4*(len(s.best)+1) > 3*len(s.keys) {
			s.growTable()
			h = s.slot(key)
		}
		s.keys[h] = key
		s.vals[h] = int32(len(s.best))
		s.best = append(s.best, noPair)
	}
	s.lastKey, s.lastIdx = key, s.vals[h]
	return &s.best[s.lastIdx]
}

// lookup returns the index in best of the label pair (la, lb)'s entry, or
// -1 when the pair has none; unlike bestFor it never inserts.
func (s *minPairsScratch) lookup(la, lb int32) int32 {
	key := pairKey(la, lb)
	if key == s.lastKey {
		return s.lastIdx
	}
	if h := s.slot(key); s.keys[h] == key {
		s.lastKey, s.lastIdx = key, s.vals[h]
		return s.lastIdx
	}
	return -1
}

// pairKey is the table key of the unordered label pair (la, lb); it is
// never 0, which marks an empty slot.
func pairKey(la, lb int32) uint64 {
	if la > lb {
		la, lb = lb, la
	}
	return (uint64(uint32(la))<<32 | uint64(uint32(lb))) + 1
}

// slot returns the slot holding key, or the empty slot where linear probing
// would insert it.
func (s *minPairsScratch) slot(key uint64) uint64 {
	h := (key * 0x9e3779b97f4a7c15) & s.mask
	for s.keys[h] != 0 && s.keys[h] != key {
		h = (h + 1) & s.mask
	}
	return h
}

// growTable rehashes into a table of twice the size.
func (s *minPairsScratch) growTable() {
	oldKeys, oldVals := s.keys, s.vals
	s.keys = make([]uint64, 2*len(oldKeys))
	s.vals = make([]int32, len(s.keys))
	s.mask = uint64(len(s.keys) - 1)
	for i, key := range oldKeys {
		if key != 0 {
			h := s.slot(key)
			s.keys[h] = key
			s.vals[h] = oldVals[i]
		}
	}
}

// minSelf handles crossing pairs with both endpoints under node a.
//
//adhoc:hotpath
func (t *KDTree) minSelf(a int32) {
	s := &t.mp
	if s.pureF[a] != kdMixed || s.pure[a] != kdMixed {
		return // one frag (no crossing pairs) or one label (no cross-label pairs)
	}
	nd := &t.nodes[a]
	dx := nd.maxX - nd.minX
	dy := nd.maxY - nd.minY
	dz := nd.maxZ - nd.minZ
	if geom.SumSq(dx, dy, dz) <= s.lo2 {
		return // whole subtree below the annulus floor
	}
	if nd.left < 0 {
		for x := nd.lo; x < nd.hi; x++ {
			i := t.idx[x]
			pi, li, fi := t.pts[i], s.labels[i], s.frag[i]
			for y := x + 1; y < nd.hi; y++ {
				j := t.idx[y]
				if s.frag[j] == fi || s.labels[j] == li {
					continue
				}
				t.offerPair(i, j, pi)
			}
		}
		return
	}
	t.minSelf(nd.left)
	t.minSelf(nd.right)
	t.minCross(nd.left, nd.right)
}

// minCross handles crossing pairs with one endpoint under a and one under b.
//
//adhoc:hotpath
func (t *KDTree) minCross(a, b int32) {
	s := &t.mp
	fa, fb := s.pureF[a], s.pureF[b]
	if fa != kdMixed && fa == fb {
		return // both subtrees are one and the same frag: nothing crosses
	}
	pa, pb := s.pure[a], s.pure[b]
	if pa != kdMixed && pa == pb {
		return // both subtrees are the same single label
	}
	na, nb := &t.nodes[a], &t.nodes[b]
	min2 := boxMinDist2(na, nb)
	if min2 > s.r2 || boxMaxDist2(na, nb) <= s.lo2 {
		return
	}
	if pa != kdMixed && pb != kdMixed {
		// Exactly one label pair below here (purity is inherited by every
		// descendant), so the whole sub-recursion is a bichromatic
		// closest-pair search for that pair: hand it the table entry once
		// and search best-first, instead of re-probing the table per pair.
		t.minCrossPair(a, b, min2, s.bestFor(pa, pb))
		return
	}
	aLeaf, bLeaf := na.left < 0, nb.left < 0
	if pa != kdMixed || pb != kdMixed {
		// One side is a single label L. Split the mixed side down to its
		// leaves first, so its pure children meet this side in
		// minCrossPair; a mixed leaf then searches the pure side point by
		// point instead of scanning it leaf pair by leaf pair.
		pure, mixed, nm, l := a, b, nb, pa
		if pa == kdMixed {
			pure, mixed, nm, l = b, a, na, pb
		}
		if nm.left >= 0 {
			t.minCross(pure, nm.left)
			t.minCross(pure, nm.right)
			return
		}
		t.pointsVsPure(mixed, pure, l)
		return
	}
	if aLeaf && bLeaf {
		for x := na.lo; x < na.hi; x++ {
			i := t.idx[x]
			pi, li, fi := t.pts[i], s.labels[i], s.frag[i]
			if pointBoxMinDist2(pi, nb) > s.r2 {
				continue // no point of b's box is within r of i
			}
			for y := nb.lo; y < nb.hi; y++ {
				j := t.idx[y]
				if s.frag[j] == fi || s.labels[j] == li {
					continue
				}
				t.offerPair(i, j, pi)
			}
		}
		return
	}
	if bLeaf || (!aLeaf && na.hi-na.lo >= nb.hi-nb.lo) {
		t.minCross(na.left, b)
		t.minCross(na.right, b)
	} else {
		t.minCross(a, nb.left)
		t.minCross(a, nb.right)
	}
}

// pointsVsPure handles crossing pairs between the mixed leaf m and the
// subtree p, whose points all carry label l. Every point i of m with
// another label has exactly one label pair with p, so it reads that pair's
// table entry once and searches p best-first for its nearest qualifying
// partner (minPoint); points labelled l have no cross-label pair with p.
// The search runs on a copy of the entry, and a pair that has no entry
// gets one only when the search finds a candidate, so the point search
// grows the table no more than offering every leaf pair did.
//
//adhoc:hotpath
func (t *KDTree) pointsVsPure(m, p, l int32) {
	s := &t.mp
	nm, np := &t.nodes[m], &t.nodes[p]
	for x := nm.lo; x < nm.hi; x++ {
		i := t.idx[x]
		li := s.labels[i]
		if li == l {
			continue
		}
		bst := noPair
		if k := s.lookup(li, l); k >= 0 {
			bst = s.best[k]
		}
		pi := t.pts[i]
		t.minPoint(i, pi, s.frag[i], p, pointBoxMinDist2(pi, np), &bst)
		if bst != noPair {
			*s.bestFor(li, l) = bst
		}
	}
}

// minPoint minimizes over crossing pairs (i, j) with j under node a into
// bst, the best candidate so far of i's label pair with a's single label.
// It is the point form of minCrossPair: nearer child first, a subtree
// dropped once its point–box bound min2 exceeds r² or bst (strict >,
// preserving equal-d2 smaller-(i, j) ties), and subtrees whose points all
// share i's frag value fi dropped outright.
//
//adhoc:hotpath
func (t *KDTree) minPoint(i int32, pi geom.Point, fi, a int32, min2 float64, bst *kdBest) {
	s := &t.mp
	if min2 > s.r2 || min2 > bst.d2 || s.pureF[a] == fi {
		return
	}
	nd := &t.nodes[a]
	if nd.left < 0 {
		for y := nd.lo; y < nd.hi; y++ {
			j := t.idx[y]
			if s.frag[j] == fi {
				continue
			}
			d2 := geom.Dist2(pi, t.pts[j])
			if d2 > s.r2 || d2 <= s.lo2 {
				continue
			}
			bst.improve(i, j, d2)
		}
		return
	}
	c1, c2 := nd.left, nd.right
	d1 := pointBoxMinDist2(pi, &t.nodes[c1])
	d2 := pointBoxMinDist2(pi, &t.nodes[c2])
	if d2 < d1 {
		c1, c2, d1, d2 = c2, c1, d2, d1
	}
	t.minPoint(i, pi, fi, c1, d1, bst)
	t.minPoint(i, pi, fi, c2, d2, bst)
}

// minCrossPair minimizes over crossing pairs with one endpoint under a and
// one under b, all belonging to one pair of labels, directly into that
// pair's table entry bst (no appends happen below here, so the pointer
// stays valid). The nearer child pair is searched first so bst tightens
// before the farther one is considered — the standard dual-tree
// closest-pair order; a subtree pair is dropped once its box bound cannot
// beat bst (strict >, preserving equal-d2 smaller-(i,j) ties). The box
// bound bounds every pair, so it stays a valid bound for the crossing
// subset. Subtree pairs whose points all share one frag value are dropped
// outright; every other pair is searched with the per-point frag check.
// min2 is boxMinDist2(a, b), already computed by the caller's pruning
// check.
//
//adhoc:hotpath
func (t *KDTree) minCrossPair(a, b int32, min2 float64, bst *kdBest) {
	s := &t.mp
	if fa := s.pureF[a]; fa != kdMixed && fa == s.pureF[b] {
		return
	}
	if min2 > s.r2 || min2 > bst.d2 {
		return
	}
	na, nb := &t.nodes[a], &t.nodes[b]
	if boxMaxDist2(na, nb) <= s.lo2 {
		return
	}
	aLeaf, bLeaf := na.left < 0, nb.left < 0
	if aLeaf && bLeaf {
		for x := na.lo; x < na.hi; x++ {
			i := t.idx[x]
			pi, fi := t.pts[i], s.frag[i]
			for y := nb.lo; y < nb.hi; y++ {
				j := t.idx[y]
				if s.frag[j] == fi {
					continue
				}
				d2 := geom.Dist2(pi, t.pts[j])
				if d2 > s.r2 || d2 <= s.lo2 {
					continue
				}
				bst.improve(i, j, d2)
			}
		}
		return
	}
	var c1, c2 int32
	if bLeaf || (!aLeaf && na.hi-na.lo >= nb.hi-nb.lo) {
		c1, c2 = na.left, na.right
		d1 := boxMinDist2(&t.nodes[c1], nb)
		d2 := boxMinDist2(&t.nodes[c2], nb)
		if d2 < d1 {
			c1, c2, d1, d2 = c2, c1, d2, d1
		}
		t.minCrossPair(c1, b, d1, bst)
		t.minCrossPair(c2, b, d2, bst)
	} else {
		c1, c2 = nb.left, nb.right
		d1 := boxMinDist2(na, &t.nodes[c1])
		d2 := boxMinDist2(na, &t.nodes[c2])
		if d2 < d1 {
			c1, c2, d1, d2 = c2, c1, d2, d1
		}
		t.minCrossPair(a, c1, d1, bst)
		t.minCrossPair(a, c2, d2, bst)
	}
}

// offerPair tests the concrete pair (i, j) against the annulus and offers it
// to its label pair's running best. pi is t.pts[i], already loaded by the
// caller's scan.
//
//adhoc:hotpath
func (t *KDTree) offerPair(i, j int32, pi geom.Point) {
	s := &t.mp
	d2 := geom.Dist2(pi, t.pts[j])
	if d2 > s.r2 || d2 <= s.lo2 {
		return
	}
	s.bestFor(s.labels[i], s.labels[j]).improve(i, j, d2)
}
