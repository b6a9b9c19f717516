package graph

import (
	"adhocnet/internal/geom"
)

// spanTree is the spanning tree kept from the workspace's last dense Prim
// under denseCritical, laid out for the Prim's slabs: the root, point 0, in
// the last slot n-1 and the other points before it in pre-order, so that
// every subtree but the root's is one contiguous run of slots. The point
// in slot k is order[k], its parent sits in slot up[k], and its subtree
// fills slots k up to end[k]. The tree is kept across calls whatever
// points they pass; certify reads it at their positions.
type spanTree struct {
	order, up, end []int32

	// par is the dense Prim's output, read by keep: the slot of each
	// pick's parent (see critical2). densePrim's Prim writes it too but
	// does not keep, which leaves order, up and end as they were. next is
	// keep's scratch.
	par, next []int32
}

// keep replaces the kept tree with the one the dense Prim left in id and
// t.par: slot k holds point id[k], and its parent sits in slot t.par[k] >
// k, the root in slot n-1. Children sit in lower slots than their parents,
// so one pass up the slots sums the subtree sizes, and one pass down them
// places each point at its parent's next free slot, right after the
// subtrees of its earlier children; par[k] then becomes the slot k's point
// was placed in, which its children read.
func (t *spanTree) keep(id []int32) {
	n := len(id)
	par := t.par[:n]
	order, up, end := grow(t.order, n), grow(t.up, n), grow(t.end, n)
	// next[k] is the subtree size of the point in slot k, and then, once
	// that point is placed, the next free slot for its children's subtrees.
	next := grow(t.next, n)
	t.order, t.up, t.end, t.next = order, up, end, next
	for k := range next {
		next[k] = 1
	}
	for k := 0; k < n-1; k++ {
		next[par[k]] += next[k]
	}
	root := n - 1
	order[root], up[root], end[root] = id[root], int32(root), int32(n)
	par[root], next[root] = int32(root), 0
	for k := n - 2; k >= 0; k-- {
		p := par[k]
		at := next[p]
		size := next[k]
		next[p] = at + size
		order[at], up[at], end[at] = id[k], par[p], at+size
		par[k], next[k] = at, at+1
	}
}

// certify returns the critical squared distance of pts (n >= 2 finite
// points, not all coincident, n the kept tree's size) when the kept tree
// proves it, with ok false otherwise. Either way it leaves the points in
// the coordinate slabs in the tree's slot order and reports whether they
// are flat, as load does.
//
// The proof: let U be the squared length of the tree's longest edge at the
// current positions, from slot c to its parent. Every spanning tree's
// largest edge bounds the MST's from above, so the critical squared
// distance b is at most U. Removing that edge cuts the points into c's
// subtree A and the rest B, and every spanning tree, an MST among them,
// has an edge across that cut, so b is at least the lightest pair across
// it. When no pair across is strictly lighter than U, the edge itself is
// that lightest pair and b = U. The squared distances are the dense Prim's
// own: geom.SumSq, which on a flat placement (every Z equal, so every Z
// difference is a zero) has the bits of geom.SumSq2, and (a−b)² is (b−a)²
// bit for bit, so U has the bits of the largest key the Prim would pick,
// whichever tree is kept.
func (s *primSlabs) certify(pts []geom.Point) (u float64, flat, ok bool) {
	t := &s.tree
	n := len(pts)
	order, up := t.order[:n], t.up[:n]
	xs, ys, zs := grow(s.x, n), grow(s.y, n), grow(s.z, n)
	s.x, s.y, s.z = xs, ys, zs
	r := pts[0]
	xs[n-1], ys[n-1], zs[n-1] = r.X, r.Y, r.Z
	// A parent sits in an earlier slot or in the root's, so its coordinates
	// are in place when its child's edge is measured.
	flat, u = true, -1
	c := 0
	for k := 0; k < n-1; k++ {
		q, a := pts[order[k]], up[k]
		xs[k], ys[k], zs[k] = q.X, q.Y, q.Z
		flat = flat && q.Z == r.Z
		if d2 := geom.SumSq(q.X-xs[a], q.Y-ys[a], q.Z-zs[a]); d2 > u {
			c, u = k, d2
		}
	}
	hi := int(t.end[c])
	if flat {
		zs = nil
	}
	ok = !lighterAcross(xs, ys, zs, c, hi, 0, c, u) && !lighterAcross(xs, ys, zs, c, hi, hi, n, u)
	return u, flat, ok
}

// lighterAcross reports whether some pair between slots [a0, a1) and
// [b0, b1) of the coordinate slabs is strictly lighter than u, stopping at
// the first one. A nil zs is a flat placement, measured by geom.SumSq2.
// The shorter range is the outer loop.
//
//adhoc:hotpath
func lighterAcross(xs, ys, zs []float64, a0, a1, b0, b1 int, u float64) bool {
	if a1-a0 > b1-b0 {
		a0, a1, b0, b1 = b0, b1, a0, a1
	}
	bx := xs[b0:b1]
	by := ys[b0:b1][:len(bx)]
	if zs == nil {
		for a := a0; a < a1; a++ {
			ax, ay := xs[a], ys[a]
			for k := range bx {
				if geom.SumSq2(ax-bx[k], ay-by[k]) < u {
					return true
				}
			}
		}
		return false
	}
	bz := zs[b0:b1][:len(bx)]
	for a := a0; a < a1; a++ {
		ax, ay, az := xs[a], ys[a], zs[a]
		for k := range bx {
			if geom.SumSq(ax-bx[k], ay-by[k], az-bz[k]) < u {
				return true
			}
		}
	}
	return false
}
