package graph

import (
	"math"
	"slices"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

// kineticWalk is a minimal random-walk trajectory driver for the kinetic
// cross-validation tests: each step displaces roughly moveFrac of the points
// by up to stepLen per axis, clamped to the unit box, and reports the moved
// set in the Mover contract (strictly ascending, only points whose position
// actually changed).
type kineticWalk struct {
	pts      []geom.Point
	rng      *xrand.Rand
	dim      int
	moveFrac float64
	stepLen  float64
	moved    []int32
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func newKineticWalk(rng *xrand.Rand, n, dim int, clustered bool, moveFrac, stepLen float64) *kineticWalk {
	w := &kineticWalk{
		pts:      make([]geom.Point, n),
		rng:      rng,
		dim:      dim,
		moveFrac: moveFrac,
		stepLen:  stepLen,
	}
	if clustered {
		// A few dense islands: the placement shape that flips the auto
		// backend to the k-d tree and stresses the annulus rounds.
		centers := make([]geom.Point, 4)
		for c := range centers {
			centers[c] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
			if dim == 3 {
				centers[c].Z = rng.Float64()
			}
		}
		for i := range w.pts {
			c := centers[rng.Intn(len(centers))]
			w.pts[i].X = clamp01(c.X + rng.Range(-0.02, 0.02))
			w.pts[i].Y = clamp01(c.Y + rng.Range(-0.02, 0.02))
			if dim == 3 {
				w.pts[i].Z = clamp01(c.Z + rng.Range(-0.02, 0.02))
			}
		}
	} else {
		for i := range w.pts {
			w.pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
			if dim == 3 {
				w.pts[i].Z = rng.Float64()
			}
		}
	}
	return w
}

func (w *kineticWalk) step() []int32 {
	w.moved = w.moved[:0]
	for i := range w.pts {
		if w.rng.Float64() >= w.moveFrac {
			continue
		}
		p := w.pts[i]
		p.X = clamp01(p.X + w.rng.Range(-w.stepLen, w.stepLen))
		p.Y = clamp01(p.Y + w.rng.Range(-w.stepLen, w.stepLen))
		if w.dim == 3 {
			p.Z = clamp01(p.Z + w.rng.Range(-w.stepLen, w.stepLen))
		}
		if p != w.pts[i] {
			w.pts[i] = p
			w.moved = append(w.moved, int32(i))
		}
	}
	return w.moved
}

// walkStep, noMoves and moveLeaf are the moved-set sources of
// TestKineticMSTMatchesGeoMST. noMoves is a non-nil empty moved set: the
// kept forest is the whole tree, so the repair's k-d tree rounds emit no
// candidate and every join comes from the kept stream's end-of-round drain.
// moveLeaf displaces one leaf of the cached tree, which leaves the kept
// forest one edge short of spanning.
func walkStep(w *kineticWalk, _ []candidate) []int32 { return w.step() }

func noMoves(*kineticWalk, []candidate) []int32 { return []int32{} }

func moveLeaf(w *kineticWalk, tree []candidate) []int32 {
	deg := make([]int, len(w.pts))
	for _, c := range tree {
		deg[c.i]++
		deg[c.j]++
	}
	leaf := int32(slices.Index(deg, 1))
	p := &w.pts[leaf]
	p.X = clamp01(p.X + w.rng.Range(-w.stepLen, w.stepLen))
	p.Y = clamp01(p.Y + w.rng.Range(-w.stepLen, w.stepLen))
	return []int32{leaf}
}

// TestKineticMSTMatchesGeoMST pins the strongest kinetic invariant: the
// repaired MST is the IDENTICAL edge list in the IDENTICAL order as a
// from-scratch GeoMST, bitwise — both are the unique strict-(d2, i, j)-order
// Kruskal tree emitted in sorted order. Each step goes through
// ProfileKinetic's repair path and compares the tree it caches.
func TestKineticMSTMatchesGeoMST(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, dim    int
		clustered bool
		moves     func(*kineticWalk, []candidate) []int32
	}{
		{"uniform-2d", 300, 2, false, walkStep},
		{"uniform-3d", 200, 3, false, walkStep},
		{"clustered-2d", 300, 2, true, walkStep},
		{"small", 64, 2, false, walkStep},
		{"no-moves", 300, 2, false, noMoves},
		{"no-moves-clustered", 300, 2, true, noMoves},
		{"one-leaf", 300, 2, false, moveLeaf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(1234)
			w := newKineticWalk(rng, tc.n, tc.dim, tc.clustered, 0.06, 0.01)
			wsK := NewWorkspace()
			wsR := NewWorkspace()
			wsK.SetKinetic(true)
			wsK.ProfileKinetic(w.pts, tc.dim, nil) // prime
			if !wsK.kin.treeOK {
				t.Fatal("prime left the kinetic tree cache cold")
			}
			for step := 0; step < 24; step++ {
				moved := tc.moves(w, wsK.kin.tree)
				want := wsR.GeoMST(w.pts, tc.dim)
				wsK.ProfileKinetic(w.pts, tc.dim, moved)
				if st := wsK.TakeStats(); st.MSTRepairs != 1 {
					t.Fatalf("step %d (%d moved): ProfileKinetic did not repair (%+v)", step, len(moved), st)
				}
				got := make([]Edge, len(wsK.kin.tree))
				for x, c := range wsK.kin.tree {
					got[x] = Edge{I: c.i, J: c.j, D: thresholdRadius(c.d2)}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d (%d moved): kinetic MST differs from rebuild", step, len(moved))
				}
			}
		})
	}
}

// TestKineticProfileMatchesRebuild drives the public entry point, including
// its prime and fallback branches, and compares the replayed profile
// bitwise against a plain workspace per step.
func TestKineticProfileMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		moveFrac float64
	}{
		{"sparse-moves", 220, 0.05},
		{"dirty-fallback", 220, 0.5}, // above kineticDirtyFraction: every step re-primes
		{"dense-cutoff", 32, 0.1},    // below geoMSTDenseCutoff: plain Prim path throughout
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(77)
			w := newKineticWalk(rng, tc.n, 2, false, tc.moveFrac, 0.02)
			wsK := NewWorkspace()
			wsR := NewWorkspace()
			wsK.SetKinetic(true)
			for step := 0; step < 16; step++ {
				var moved []int32
				if step > 0 {
					moved = w.step()
				}
				got := wsK.ProfileKinetic(w.pts, 2, moved)
				want := wsR.Profile(w.pts, 2)
				if got.n != want.n ||
					!slices.Equal(got.mergeRadii, want.mergeRadii) ||
					!slices.Equal(got.largestAfter, want.largestAfter) {
					t.Fatalf("step %d (%d moved): kinetic profile differs from rebuild", step, len(moved))
				}
			}
		})
	}
}

// TestProfileKineticNonFinitePanics checks that a moved point turning NaN
// makes the warm repair path fall back to GeoMST's non-finite panic instead
// of growing its rings forever.
func TestProfileKineticNonFinitePanics(t *testing.T) {
	w := newKineticWalk(xrand.New(3), 400, 2, false, 0.02, 0.01)
	ws := NewWorkspace()
	ws.SetKinetic(true)
	ws.ProfileKinetic(w.pts, 2, nil)
	w.pts[57].X = math.NaN()
	expectNonFinitePanic(t, "ProfileKinetic", func() { ws.ProfileKinetic(w.pts, 2, []int32{57}) })
}
