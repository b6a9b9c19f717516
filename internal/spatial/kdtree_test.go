package spatial

import (
	"fmt"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/xrand"
)

// clusteredPoints builds an islands placement: k tight clusters in a large
// region, the shape the grid's budgeted cells handle worst.
func clusteredPoints(rng *xrand.Rand, reg geom.Region, clusters, perCluster int, radius float64) []geom.Point {
	var pts []geom.Point
	for c := 0; c < clusters; c++ {
		center := reg.UniformPoint(rng)
		for i := 0; i < perCluster; i++ {
			pts = append(pts, reg.Clamp(reg.UniformInBall(rng, center, radius)))
		}
	}
	return pts
}

// newKDTree builds a tree over pts.
func newKDTree(pts []geom.Point, dim int) *KDTree {
	t := &KDTree{}
	t.Rebuild(pts, dim)
	return t
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	rng := xrand.New(11)
	for _, dim := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 5, 17, 40, 200} {
			for _, r := range []float64{0, 0.5, 2, 10, 50, 200} {
				reg := geom.MustRegion(100, dim)
				pts := reg.UniformPoints(rng, n)
				tree := newKDTree(pts, dim)
				got := pairSet(func(v PairVisitor) { tree.ForEachPairWithin(r, v) })
				want := pairSet(func(v PairVisitor) { BruteForcePairsWithin(pts, r, v) })
				if !equalStrings(got, want) {
					t.Fatalf("dim=%d n=%d r=%v: tree %d pairs, brute %d pairs",
						dim, n, r, len(got), len(want))
				}
			}
		}
	}
}

func TestKDTreeMatchesGridClustered(t *testing.T) {
	rng := xrand.New(12)
	reg := geom.MustRegion(2000, 2)
	pts := clusteredPoints(rng, reg, 6, 40, 4)
	tree := newKDTree(pts, 2)
	for _, r := range []float64{0.5, 3, 8, 100, 3000} {
		got := pairSet(func(v PairVisitor) { tree.ForEachPairWithin(r, v) })
		want := pairSet(func(v PairVisitor) { PairsWithin(pts, 2, r, v) })
		if !equalStrings(got, want) {
			t.Fatalf("r=%v: tree %d pairs, grid %d pairs", r, len(got), len(want))
		}
	}
}

func TestKDTreeCoincidentPoints(t *testing.T) {
	// All points identical: every build split has zero extent, so the root
	// must become a leaf rather than recurse forever, and a zero-radius
	// query must still see every pair (d2 == 0 <= 0).
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Point{X: 7, Y: 7, Z: 7}
	}
	tree := newKDTree(pts, 3)
	count := 0
	tree.ForEachPairWithin(0, func(i, j int, d2 float64) {
		if d2 != 0 {
			t.Fatalf("pair (%d,%d) has d2=%v, want 0", i, j, d2)
		}
		count++
	})
	if want := len(pts) * (len(pts) - 1) / 2; count != want {
		t.Fatalf("coincident pairs: got %d, want %d", count, want)
	}
}

func TestKDTreeRebuildZeroAllocs(t *testing.T) {
	rng := xrand.New(15)
	reg := geom.MustRegion(2000, 2)
	pts := clusteredPoints(rng, reg, 8, 64, 20)
	var tree KDTree
	sink := 0
	visit := func(i, j int, d2 float64) { sink++ }
	// Warm the backing arrays once, then demand a zero steady state.
	tree.Rebuild(pts, 2)
	tree.ForEachPairWithin(60, visit)
	allocs := testing.AllocsPerRun(10, func() {
		tree.Rebuild(pts, 2)
		tree.ForEachPairWithin(60, visit)
		tree.ForEachPairWithin(120, visit)
	})
	if allocs != 0 {
		t.Fatalf("steady-state rebuild+query allocates %v/op, want 0", allocs)
	}
	_ = sink
}

// BenchmarkKDTreeRebuildClustered4096 times the tree build on the placement
// of adhocbench's clustered-islands workload (4096 nodes in 8 islands of
// radius 600, l = 16384), which rebuilds the tree every snapshot.
func BenchmarkKDTreeRebuildClustered4096(b *testing.B) {
	pts := make([]geom.Point, 4096)
	mobility.Clusters{Clusters: 8, Radius: 600}.Fill(xrand.New(1), geom.MustRegion(16384, 2), pts)
	var tree KDTree
	tree.Rebuild(pts, 2) // grow the backing arrays once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Rebuild(pts, 2)
	}
}

func TestKDTreeBalancedOnDuplicateCoordinates(t *testing.T) {
	// Many tied coordinates must not degrade the median select (3-way
	// partition) or unbalance the tree into a recursion hazard: 4096 points
	// on a 16-value lattice still index and query correctly.
	rng := xrand.New(16)
	pts := make([]geom.Point, 4096)
	for i := range pts {
		pts[i] = geom.Point{
			X: float64(rng.Intn(16)),
			Y: float64(rng.Intn(16)),
		}
	}
	tree := newKDTree(pts, 2)
	count := 0
	tree.ForEachPairWithin(0.5, func(i, j int, d2 float64) { count++ })
	want := 0
	BruteForcePairsWithin(pts, 0.5, func(i, j int, d2 float64) { want++ })
	if count != want {
		t.Fatalf("lattice pairs: tree %d, brute %d", count, want)
	}
}

// bruteMinPairsByLabel is the reference for MinPairsByLabel: all annulus
// pairs with distinct labels and distinct frag values, reduced to the
// (d2, i, j)-minimal candidate per unordered label pair.
func bruteMinPairsByLabel(pts []geom.Point, labels, frag []int32, lo2, r float64) map[[2]int32][3]float64 {
	want := map[[2]int32][3]float64{}
	BruteForcePairsWithin(pts, r, func(i, j int, d2 float64) {
		if d2 <= lo2 || labels[i] == labels[j] || frag[i] == frag[j] {
			return
		}
		la, lb := labels[i], labels[j]
		if la > lb {
			la, lb = lb, la
		}
		key := [2]int32{la, lb}
		cand := [3]float64{d2, float64(i), float64(j)}
		if cur, ok := want[key]; !ok || candBefore(cand, cur) {
			want[key] = cand
		}
	})
	return want
}

// candBefore is the strict (d2, i, j) order on [d2, i, j] triples.
func candBefore(a, b [3]float64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// checkMinPairs runs MinPairsByLabel on tree and compares every emitted
// minimum with bruteMinPairsByLabel, failing on a missing, extra, wrong or
// repeated label pair.
func checkMinPairs(t *testing.T, name string, tree *KDTree, pts []geom.Point, labels, frag []int32, lo2, r float64) {
	t.Helper()
	want := bruteMinPairsByLabel(pts, labels, frag, lo2, r)
	got := map[[2]int32][3]float64{}
	tree.MinPairsByLabel(labels, frag, lo2, r, func(i, j int, d2 float64) {
		la, lb := labels[i], labels[j]
		if la == lb {
			t.Fatalf("%s: pair (%d,%d) has equal labels", name, i, j)
		}
		if frag[i] == frag[j] {
			t.Fatalf("%s: same-frag pair (%d,%d) emitted", name, i, j)
		}
		if la > lb {
			la, lb = lb, la
		}
		key := [2]int32{la, lb}
		if _, dup := got[key]; dup {
			t.Fatalf("%s: label pair %v visited twice", name, key)
		}
		got[key] = [3]float64{d2, float64(i), float64(j)}
	})
	if len(got) != len(want) {
		t.Fatalf("%s: %d label pairs, want %d", name, len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || g != w {
			t.Fatalf("%s: label pair %v: got %v, want %v", name, key, got[key], w)
		}
	}
}

// stragglerLabels labels points by blocks of blk (aligned with the islands
// of clusteredPoints) and gives every 7th point a label of its own: mixed
// leaves then sit beside single-label islands, the shape of the MST's later
// rounds, where a few unjoined points remain next to coalesced islands.
func stragglerLabels(n, blk int) []int32 {
	l := make([]int32, n)
	for i := range l {
		l[i] = int32(i / blk)
		if i%7 == 0 {
			l[i] = int32(n + i)
		}
	}
	return l
}

func TestKDTreeMinPairsByLabel(t *testing.T) {
	rng := xrand.New(31)
	reg := geom.MustRegion(2000, 2)
	clustered := clusteredPoints(rng, reg, 6, 40, 8)
	uniform := reg.UniformPoints(rng, 200)
	labelings := map[string]func(n int) []int32{
		"singletons": func(n int) []int32 {
			l := make([]int32, n)
			for i := range l {
				l[i] = int32(i)
			}
			return l
		},
		"all_same": func(n int) []int32 { return make([]int32, n) },
		"mod7": func(n int) []int32 {
			l := make([]int32, n)
			for i := range l {
				l[i] = int32(i % 7)
			}
			return l
		},
		"blocks": func(n int) []int32 {
			l := make([]int32, n)
			for i := range l {
				l[i] = int32(i / 40) // aligns with the clusters
			}
			return l
		},
		"blocks+stragglers": func(n int) []int32 { return stragglerLabels(n, 40) },
	}
	for ptsName, pts := range map[string][]geom.Point{"clustered": clustered, "uniform": uniform} {
		tree := newKDTree(pts, 2)
		for labName, mk := range labelings {
			labels := mk(len(pts))
			for _, band := range [][2]float64{{-1, 10}, {100, 400}, {2500, 150}, {160000, 4000}} {
				name := fmt.Sprintf("%s/%s/(%v,%v]", ptsName, labName, band[0], band[1])
				checkMinPairs(t, name, tree, pts, labels, labels, band[0], band[1])
			}
		}
	}
}

func TestKDTreeMinPairsByLabelLattice(t *testing.T) {
	// Integer coordinates make point-box bounds and pair distances land
	// exactly on r*r: the pruning must keep a subtree whose bound equals
	// r*r (a pair at distance exactly r is in the annulus) and one whose
	// bound equals the current best (it may hold an equal-d2 pair with a
	// smaller (i, j)). Every band ends on an integer radius.
	rng := xrand.New(33)
	// Four 12x12 lattice islands, 3 to 6 units apart, in shuffled index
	// order so that (i, j) ties do not follow the geometry.
	offsets := [4][2]float64{{0, 0}, {14, 0}, {0, 16}, {18, 17}}
	var pts []geom.Point
	var island []int32
	for c, o := range offsets {
		for x := 0; x < 12; x++ {
			for y := 0; y < 12; y++ {
				pts = append(pts, geom.Point{X: o[0] + float64(x), Y: o[1] + float64(y)})
				island = append(island, int32(c))
			}
		}
	}
	for i := len(pts) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pts[i], pts[j] = pts[j], pts[i]
		island[i], island[j] = island[j], island[i]
	}
	n := len(pts)
	tree := newKDTree(pts, 2)
	islands := make([]int32, n) // label by island, stragglers on their own
	for i := range islands {
		islands[i] = island[i]
		if i%7 == 0 {
			islands[i] = int32(n + i)
		}
	}
	frag := make([]int32, n)
	for i := range frag {
		frag[i] = islands[i]
		if i%5 == 0 {
			frag[i] = int32(2*n + i)
		}
	}
	for _, r := range []float64{1, 2, 3, 4, 5, 6, 8} {
		for _, lo2 := range []float64{-1, (r - 1) * (r - 1)} {
			name := fmt.Sprintf("lattice (%v,%v]", lo2, r)
			checkMinPairs(t, name, tree, pts, islands, islands, lo2, r)
			checkMinPairs(t, name+" frag", tree, pts, islands, frag, lo2, r)
		}
	}
}
