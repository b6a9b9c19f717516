package spatial

import (
	"fmt"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

// This file cross-validates the spatial primitives the graph layer's MST
// rounds and kinetic MST repair compose — Index.ForEachNear and
// KDTree.Update against brute force and fresh rebuilds across a random-walk
// trajectory, plus the crossing semantics of MinPairsByLabel. Each must be
// exact on its own for the repair's bit-identity to be provable layer by
// layer.

// walkStep displaces ~frac of the points by up to step per axis (2-D) and
// returns the moved set in the Update contract: strictly ascending, only
// points whose position actually changed.
func walkStep(rng *xrand.Rand, pts []geom.Point, frac, step float64) []int32 {
	var moved []int32
	for i := range pts {
		if rng.Float64() >= frac {
			continue
		}
		p := pts[i]
		p.X += rng.Range(-step, step)
		p.Y += rng.Range(-step, step)
		if p != pts[i] {
			pts[i] = p
			moved = append(moved, int32(i))
		}
	}
	return moved
}

// pairMap collects a pair enumeration into a canonical map for comparison.
func pairMap(enum func(visit PairVisitor)) map[[2]int32]float64 {
	got := map[[2]int32]float64{}
	enum(func(i, j int, d2 float64) {
		a, b := int32(i), int32(j)
		if a > b {
			a, b = b, a
		}
		got[[2]int32{a, b}] = d2
	})
	return got
}

func samePairs(t *testing.T, name string, got, want map[[2]int32]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: pair %v: got %v, want %v", name, k, got[k], w)
		}
	}
}

// TestIndexForEachNear checks the directed single-point query against brute
// force for every point, at a radius within the cell side and at one beyond
// it (the widened-scan fallback).
func TestIndexForEachNear(t *testing.T) {
	rng := xrand.New(405)
	reg := geom.MustRegion(1000, 2)
	pts := clusteredPoints(rng, reg, 5, 40, 20)
	ix := NewIndex(pts, 2, 50)
	for _, r := range []float64{0, 30, 200} {
		for i := range pts {
			got := map[int32]float64{}
			ix.ForEachNear(int32(i), r, func(qi, j int, d2 float64) {
				if qi != i {
					t.Fatalf("r=%v: visit reported query point %d, want %d", r, qi, i)
				}
				if _, dup := got[int32(j)]; dup {
					t.Fatalf("r=%v i=%d: neighbor %d visited twice", r, i, j)
				}
				got[int32(j)] = d2
			})
			want := map[int32]float64{}
			for j := range pts {
				if d2 := geom.Dist2(pts[i], pts[j]); j != i && d2 <= r*r {
					want[int32(j)] = d2
				}
			}
			if len(got) != len(want) {
				t.Fatalf("r=%v i=%d: %d neighbors, want %d", r, i, len(got), len(want))
			}
			for j, w := range want {
				if g, ok := got[j]; !ok || g != w {
					t.Fatalf("r=%v i=%d: neighbor %d: got %v, want %v", r, i, j, got[j], w)
				}
			}
		}
	}
}

// TestKDTreeUpdateMatchesRebuild walks the k-d tree through in-place motion
// and requires the box-expanded tree to enumerate exactly what a fresh build
// does — loose boxes may cost pruning, never pairs.
func TestKDTreeUpdateMatchesRebuild(t *testing.T) {
	rng := xrand.New(406)
	reg := geom.MustRegion(1000, 2)
	pts := clusteredPoints(rng, reg, 6, 50, 15)
	tree := NewKDTree(pts, 2)
	for step := 0; step < 12; step++ {
		stepLen := 8.0
		if step%3 == 2 {
			stepLen = 150
		}
		moved := walkStep(rng, pts, 0.1, stepLen)
		tree.Update(moved)
		fresh := NewKDTree(pts, 2)
		name := fmt.Sprintf("step %d (%d moved)", step, len(moved))
		for _, r := range []float64{40, 120} {
			got := pairMap(func(v PairVisitor) { tree.ForEachPairWithin(r, v) })
			want := pairMap(func(v PairVisitor) { fresh.ForEachPairWithin(r, v) })
			samePairs(t, fmt.Sprintf("%s r=%v", name, r), got, want)
		}
	}
}

// TestKDTreeMinPairsByLabelCrossing cross-validates the crossing-restricted
// minima against flat enumeration: per label pair, the (d2, i, j)-minimal
// annulus pair whose endpoints differ in frag — and nothing when no such
// pair exists, even if same-frag pairs with those labels do. Each band
// alternates the unrestricted form (frag = labels) and the crossing form on
// one tree, so neither can leave the other a stale annotation.
func TestKDTreeMinPairsByLabelCrossing(t *testing.T) {
	rng := xrand.New(409)
	reg := geom.MustRegion(2000, 2)
	for ptsName, pts := range map[string][]geom.Point{
		"clustered": clusteredPoints(rng, reg, 6, 40, 8),
		"uniform":   reg.UniformPoints(rng, 200),
	} {
		tree := NewKDTree(pts, 2)
		n := len(pts)
		// Mirror the kinetic repair's shapes: frag blocks of kept-forest
		// fragments with a sprinkle of singleton "movers", against labels
		// that are coarser, finer or unaligned. Blocks of 40 follow the
		// clustered placement's islands, so subtrees turn label- and
		// frag-pure and every pruning branch runs; blocks of 10 and 25 cut
		// across the leaves.
		for _, shape := range []struct{ fragBlock, labelBlock int }{{40, 80}, {80, 40}, {10, 25}} {
			frag := make([]int32, n)
			labels := make([]int32, n)
			for i := range frag {
				frag[i] = int32(i / shape.fragBlock)
				if i%17 == 0 {
					frag[i] = int32(1000 + i) // singleton fragment, a "mover"
				}
				labels[i] = int32(i / shape.labelBlock)
			}
			for _, band := range [][2]float64{{-1, 60}, {100, 900}, {250000, 4000}} {
				lo2, r := band[0], band[1]
				name := fmt.Sprintf("%s frag/%d labels/%d band (%v,%v]",
					ptsName, shape.fragBlock, shape.labelBlock, lo2, r)
				checkMinPairs(t, name+" frag=labels", tree, pts, labels, labels, lo2, r)
				checkMinPairs(t, name, tree, pts, labels, frag, lo2, r)
			}
		}
	}
}
