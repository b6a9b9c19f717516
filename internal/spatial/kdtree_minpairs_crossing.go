package spatial

// MinPairsByLabelCrossing — MinPairsByLabel restricted to pairs that cross a
// second, static partition.
//
// The kinetic MST repair (graph.Workspace) re-runs Kruskal over the full
// point set after a mobility step, but almost all of the structure is
// already known: tree edges between unmoved points survive verbatim, and
// every NEW tree edge must cross between components of the kept forest — a
// pair inside one kept fragment still has its old tree path intact, and
// that path certifies it non-minimal. The repair therefore streams the kept
// edges and only needs candidates from pairs whose endpoints lie in
// different kept fragments (a moved point is its own fragment). Enumerating
// those pairs flat floods the per-round sort on dense placements; as with
// MinPairsByLabel, only the minimal crossing pair per component pair can
// ever be accepted, and this query returns exactly those minima.
//
// The crossing restriction adds one pruning fact to MinPairsByLabel's
// three: a subtree whose points all share one frag value contains no
// crossing pairs, and two such subtrees sharing the same value have none
// between them either. Everything else — label purity pruning, box bounds,
// the bichromatic descent, the strict tie order — is shared, so the emitted
// minima are exact over the crossing pair set for the same reason
// MinPairsByLabel's are exact over the full pair set. When both sides of a
// bichromatic descent are frag-pure with different values, every pair
// between them crosses and the search continues in the unrestricted
// minCrossPure.

import "adhocnet/internal/geom"

// MinPairsByLabelCrossing visits, for every unordered pair of distinct
// labels with at least one annulus pair (lo2 < d2 <= r*r) whose endpoints
// carry different frag values, the minimal such crossing pair in the strict
// (d2, i, j) order — and nothing else. labels and frag must have one entry
// per indexed point; frag values must be non-negative and are opaque
// (only ==/!= matters). Negative labels exclude their points exactly as in
// MinPairsByLabel. Visit order is unspecified.
func (t *KDTree) MinPairsByLabelCrossing(labels, frag []int32, lo2, r float64, visit PairVisitor) {
	t.stats.MinPairsRounds++
	if r < 0 || t.root < 0 || len(t.pts) < 2 {
		return
	}
	s := &t.mp
	s.labels = labels
	s.frag = frag
	s.lo2 = lo2
	s.r2 = r * r
	t.annotatePure()
	t.annotateFrag()
	if len(s.keys) == 0 {
		s.keys = make([]uint64, 1024)
		s.vals = make([]int32, 1024)
	}
	clear(s.keys)
	s.best = s.best[:0]
	s.mask = uint64(len(s.keys) - 1)
	s.lastKey = 0
	t.minSelfCrossing(t.root)
	for _, b := range s.best {
		if b.i >= 0 {
			emitOrdered(int(b.i), int(b.j), b.d2, visit)
		}
	}
	s.labels = nil
	s.frag = nil
}

// annotateFrag fills pureF[] with each subtree's single frag value, or
// kdNoLabel when it spans several. Children are appended after their parent
// during build, so one reverse pass visits children first.
func (t *KDTree) annotateFrag() {
	s := &t.mp
	if cap(s.pureF) < len(t.nodes) {
		s.pureF = make([]int32, len(t.nodes))
	}
	s.pureF = s.pureF[:len(t.nodes)]
	for id := len(t.nodes) - 1; id >= 0; id-- {
		nd := &t.nodes[id]
		if nd.left >= 0 {
			if l, r := s.pureF[nd.left], s.pureF[nd.right]; l == r {
				s.pureF[id] = l
			} else {
				s.pureF[id] = kdNoLabel
			}
			continue
		}
		f := s.frag[t.idx[nd.lo]]
		for x := nd.lo + 1; x < nd.hi; x++ {
			if s.frag[t.idx[x]] != f {
				f = kdNoLabel
				break
			}
		}
		s.pureF[id] = f
	}
}

// minSelfCrossing handles crossing pairs with both endpoints under node a.
//
//adhoc:hotpath
func (t *KDTree) minSelfCrossing(a int32) {
	s := &t.mp
	if s.pureF[a] != kdNoLabel || s.pure[a] != kdNoLabel {
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
			if li < 0 {
				continue
			}
			for y := x + 1; y < nd.hi; y++ {
				j := t.idx[y]
				if s.frag[j] == fi {
					continue
				}
				if lj := s.labels[j]; lj < 0 || lj == li {
					continue
				}
				t.offerPair(i, j, pi)
			}
		}
		return
	}
	t.minSelfCrossing(nd.left)
	t.minSelfCrossing(nd.right)
	t.minCrossCrossing(nd.left, nd.right)
}

// minCrossCrossing handles crossing pairs with one endpoint under a and one
// under b.
//
//adhoc:hotpath
func (t *KDTree) minCrossCrossing(a, b int32) {
	s := &t.mp
	fa, fb := s.pureF[a], s.pureF[b]
	if fa != kdNoLabel && fa == fb {
		return // both subtrees are one and the same frag: nothing crosses
	}
	na, nb := &t.nodes[a], &t.nodes[b]
	pa, pb := s.pure[a], s.pure[b]
	if pa == kdAllExcluded || pb == kdAllExcluded {
		return
	}
	if pa != kdNoLabel && pa == pb {
		return
	}
	min2 := boxMinDist2(na, nb)
	if min2 > s.r2 || boxMaxDist2(na, nb) <= s.lo2 {
		return
	}
	if pa != kdNoLabel && pb != kdNoLabel {
		t.minCrossPureCrossing(a, b, min2, s.bestFor(pa, pb))
		return
	}
	aLeaf, bLeaf := na.left < 0, nb.left < 0
	if aLeaf && bLeaf {
		for x := na.lo; x < na.hi; x++ {
			i := t.idx[x]
			pi, li, fi := t.pts[i], s.labels[i], s.frag[i]
			if li < 0 {
				continue
			}
			for y := nb.lo; y < nb.hi; y++ {
				j := t.idx[y]
				if s.frag[j] == fi {
					continue
				}
				if lj := s.labels[j]; lj < 0 || lj == li {
					continue
				}
				t.offerPair(i, j, pi)
			}
		}
		return
	}
	if bLeaf || (!aLeaf && na.hi-na.lo >= nb.hi-nb.lo) {
		t.minCrossCrossing(na.left, b)
		t.minCrossCrossing(na.right, b)
	} else {
		t.minCrossCrossing(a, nb.left)
		t.minCrossCrossing(a, nb.right)
	}
}

// minCrossPureCrossing is minCrossPure restricted to crossing pairs: the
// same best-first bichromatic descent into bst, with same-frag subtree
// pairs dropped outright and frag-pure disjoint pairs handed to the
// unrestricted search (every pair between them crosses). The box bound
// stays a valid lower bound for the crossing subset (it bounds every pair),
// so the strict > prune never skips the crossing minimum or an
// (i, j)-smaller tie.
//
//adhoc:hotpath
func (t *KDTree) minCrossPureCrossing(a, b int32, min2 float64, bst *kdBest) {
	s := &t.mp
	fa, fb := s.pureF[a], s.pureF[b]
	if fa != kdNoLabel {
		if fa == fb {
			return
		}
		if fb != kdNoLabel {
			t.minCrossPure(a, b, min2, bst)
			return
		}
	}
	if min2 > s.r2 || min2 > bst.d2 {
		return
	}
	if s.pure[a] == kdAllExcluded || s.pure[b] == kdAllExcluded {
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
			if s.labels[i] < 0 {
				continue
			}
			for y := nb.lo; y < nb.hi; y++ {
				j := t.idx[y]
				if s.frag[j] == fi || s.labels[j] < 0 {
					continue
				}
				d2 := geom.Dist2(pi, t.pts[j])
				if d2 > s.r2 || d2 <= s.lo2 {
					continue
				}
				lo, hi := i, j
				if lo > hi {
					lo, hi = hi, lo
				}
				if cand := (kdBest{d2: d2, i: lo, j: hi}); bestLess(cand, *bst) {
					*bst = cand
				}
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
		t.minCrossPureCrossing(c1, b, d1, bst)
		t.minCrossPureCrossing(c2, b, d2, bst)
	} else {
		c1, c2 = nb.left, nb.right
		d1 := boxMinDist2(na, &t.nodes[c1])
		d2 := boxMinDist2(na, &t.nodes[c2])
		if d2 < d1 {
			c1, c2, d1, d2 = c2, c1, d2, d1
		}
		t.minCrossPureCrossing(a, c1, d1, bst)
		t.minCrossPureCrossing(a, c2, d2, bst)
	}
}
