package graph

import (
	"math"
	"slices"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
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

// TestKineticMSTMatchesGeoMST pins the strongest kinetic invariant: the
// repaired MST is the IDENTICAL edge list in the IDENTICAL order as a
// from-scratch GeoMST, bitwise — both are the unique strict-(d2, i, j)-order
// Kruskal tree emitted in sorted order.
func TestKineticMSTMatchesGeoMST(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, dim    int
		clustered bool
	}{
		{"uniform-2d", 300, 2, false},
		{"uniform-3d", 200, 3, false},
		{"clustered-2d", 300, 2, true},
		{"small", 64, 2, false},
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
				moved := w.step()
				want := slices.Clone(wsR.GeoMST(w.pts, tc.dim))
				got, ok := wsK.kineticMST(w.pts, moved)
				if !ok {
					t.Fatalf("step %d: kineticMST refused a non-degenerate placement", step)
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

// sortedEdges returns a clone of edges normalized to I < J and sorted by
// (I, J) — the canonical form for comparing edge SETS whose emission order
// legitimately differs.
func sortedEdges(edges []Edge) []Edge {
	out := slices.Clone(edges)
	for i, e := range out {
		if e.J < e.I {
			out[i].I, out[i].J = e.J, e.I
		}
	}
	slices.SortFunc(out, func(a, b Edge) int {
		if a.I != b.I {
			return int(a.I - b.I)
		}
		return int(a.J - b.J)
	})
	return out
}

// TestKineticPointGraphMatchesRebuild cross-validates the repaired
// communication graph against a plain rebuild for every backend policy: the
// edge sets (including the D values, bitwise) must be identical.
func TestKineticPointGraphMatchesRebuild(t *testing.T) {
	for _, backend := range []spatial.Backend{spatial.BackendAuto, spatial.BackendGrid, spatial.BackendKDTree} {
		for _, tc := range []struct {
			name      string
			n         int
			clustered bool
			r         float64
		}{
			{"uniform", 250, false, 0.09},
			{"clustered", 250, true, 0.05},
			{"tiny-radius", 250, false, 0.004},
		} {
			t.Run(backend.String()+"/"+tc.name, func(t *testing.T) {
				rng := xrand.New(5150)
				w := newKineticWalk(rng, tc.n, 2, tc.clustered, 0.07, 0.01)
				wsK := NewWorkspace()
				wsR := NewWorkspace()
				wsK.SetSpatialBackend(backend)
				wsR.SetSpatialBackend(backend)
				wsK.SetKinetic(true)
				for step := 0; step < 16; step++ {
					var moved []int32
					if step > 0 {
						moved = w.step()
					}
					gotAdj := wsK.PointGraphKinetic(w.pts, 2, tc.r, moved)
					got := sortedEdges(wsK.kin.graph)
					wantAdj := wsR.PointGraph(w.pts, 2, tc.r)
					want := sortedEdges(wsR.edges)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d (%d moved): kinetic edge set differs from rebuild (got %d, want %d edges)",
							step, len(moved), len(got), len(want))
					}
					gc, gl := wsK.ComponentSummary(gotAdj)
					wc, wl := wsR.ComponentSummary(wantAdj)
					if gc != wc || gl != wl {
						t.Fatalf("step %d: component summary differs: got (%d, %d), want (%d, %d)", step, gc, gl, wc, wl)
					}
				}
			})
		}
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
