package graph

import (
	"fmt"
	"math"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

// criticalPlacements are the placements of TestCriticalMatchesProfile, n
// points in [0, 1000)^dim each: uniform, eight islands, groups of three
// coincident points, every point stacked on one spot (the coincident star),
// a line with uneven gaps, and an integer lattice full of distance ties.
func criticalPlacements(rng *xrand.Rand, n, dim int) map[string][]geom.Point {
	reg := geom.MustRegion(1000, dim)
	at := func(c ...float64) geom.Point {
		var p geom.Point
		p.X = c[0]
		if dim >= 2 {
			p.Y = c[1]
		}
		if dim >= 3 {
			p.Z = c[2]
		}
		return p
	}
	uniform := reg.UniformPoints(rng, n)
	centers := reg.UniformPoints(rng, 8)
	islands, triples, stacked, line, lattice := make([]geom.Point, n), make([]geom.Point, n), make([]geom.Point, n), make([]geom.Point, n), make([]geom.Point, n)
	side := int(math.Ceil(math.Pow(float64(max(n, 1)), 1/float64(dim))))
	x := 0.0
	for i := range islands {
		c := centers[i%8]
		islands[i] = at(c.X+rng.Range(-5, 5), c.Y+rng.Range(-5, 5), c.Z+rng.Range(-5, 5))
		triples[i] = uniform[i/3]
		stacked[i] = at(500, 500, 500)
		line[i] = at(x, 2*x, 3*x)
		x += []float64{1, 3, 1, 7, 0.25, 3}[i%6]
		lattice[i] = at(float64(7*(i%side)), float64(7*(i/side%side)), float64(7*(i/(side*side))))
	}
	return map[string][]geom.Point{
		"uniform": uniform, "islands": islands, "coincident": triples,
		"stacked": stacked, "collinear": line, "lattice": lattice,
	}
}

// criticalDrift is the moved-fraction schedule of TestCriticalMatchesProfile's
// armed walk. A negative entry passes a nil moved set (re-prime); 0.5 is
// past kineticDirtyFraction (dirty fallback); the rest repair above the
// dense cutoff.
var criticalDrift = []float64{-1, 0.05, 0.02, 0.5, 0.05, -1, 0.1, 0.3, 0.05, 0.01}

// TestCriticalMatchesProfile pins Critical and CriticalKinetic to their
// profile twins: the same float64 bits as Profile(...).Critical() and
// ProfileKinetic(...).Critical(), and the same WorkspaceStats after the
// same calls but CriticalCertified, at sizes on both sides of the dense
// cutoff.
func TestCriticalMatchesProfile(t *testing.T) {
	rng := xrand.New(91)
	for _, dim := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 3, denseCutoff(dim), denseCutoff(dim) + 1, 1024} {
			for name, pts := range criticalPlacements(rng, n, dim) {
				t.Run(fmt.Sprintf("dim%d/n%d/%s", dim, n, name), func(t *testing.T) {
					wsP, wsC := NewWorkspace(), NewWorkspace()
					check := func(what string, want, got float64) {
						t.Helper()
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: critical %v, profile says %v", what, got, want)
						}
						sp, sc := wsP.TakeStats(), wsC.TakeStats()
						sc.CriticalCertified = 0 // Profile has no certificate
						if sp != sc {
							t.Fatalf("%s: counters differ:\nprofile  %+v\ncritical %+v", what, sp, sc)
						}
					}
					check("rebuild", wsP.Profile(pts, dim).Critical(), wsC.Critical(pts, dim))

					wsP.SetKinetic(true)
					wsC.SetKinetic(true)
					var total WorkspaceStats
					for step, frac := range criticalDrift {
						var moved []int32
						if frac >= 0 {
							moved = []int32{}
							for i := range pts {
								if rng.Float64() < frac {
									pts[i].X += rng.Range(-3, 3)
									moved = append(moved, int32(i))
								}
							}
						}
						want := wsP.ProfileKinetic(pts, dim, moved).Critical()
						total.MSTRepairs += wsP.stats.MSTRepairs
						total.MSTDirtyFallbacks += wsP.stats.MSTDirtyFallbacks
						total.MSTRebuilds += wsP.stats.MSTRebuilds
						check(fmt.Sprintf("step %d (%d moved)", step, len(moved)), want, wsC.CriticalKinetic(pts, dim, moved))
					}
					if n == 1024 && dim > 1 && name != "stacked" &&
						(total.MSTRepairs == 0 || total.MSTDirtyFallbacks == 0 || total.MSTRebuilds < 3) {
						t.Fatalf("the walk missed a kinetic branch: %+v", total)
					}
				})
			}
		}
	}
}

// TestCriticalKineticBuildsTreeOnce checks that an armed rebuild step on a
// placement whose MST takes the k-d tree rounds builds the tree once: the
// kinetic prime reuses the tree mst just built over the same points.
func TestCriticalKineticBuildsTreeOnce(t *testing.T) {
	rng := xrand.New(97)
	pts := criticalPlacements(rng, 1024, 2)["islands"]
	ws := NewWorkspace()
	ws.SetKinetic(true)
	ws.CriticalKinetic(pts, 2, nil)
	ws.TakeStats()
	var moved []int32
	for i := range pts {
		if i%2 == 0 {
			pts[i].X += rng.Range(-1, 1)
			moved = append(moved, int32(i))
		}
	}
	ws.CriticalKinetic(pts, 2, moved)
	s := ws.TakeStats()
	if s.MSTDirtyFallbacks != 1 || s.TreePicks != 1 {
		t.Fatalf("want one dirty fallback on a tree-picked placement, got %+v", s)
	}
	if s.Tree.Rebuilds != 1 {
		t.Fatalf("dirty step built the k-d tree %d times, want 1", s.Tree.Rebuilds)
	}
}

// TestCriticalGapDefersToProfile covers the 1-D placements whose largest
// gap is not positive, where Critical leaves the answer to the profile: a
// -0 gap (+0 sorted before -0) and a NaN coordinate.
func TestCriticalGapDefersToProfile(t *testing.T) {
	for name, xs := range map[string][]float64{
		"signed-zeros": {0, math.Copysign(0, -1)},
		"nan":          {1, math.NaN(), 3},
	} {
		pts := make([]geom.Point, len(xs))
		for i, x := range xs {
			pts[i].X = x
		}
		want := NewWorkspace().Profile(pts, 1).Critical()
		if got := NewWorkspace().Critical(pts, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: critical %v, profile says %v", name, got, want)
		}
	}
}

// TestCriticalNonFinitePanics checks that Critical and CriticalKinetic keep
// GeoMST's non-finite contract on both sides of the dense cutoff: cold, and
// (above the cutoff) from a warm tree cache whose moved point turns bad.
func TestCriticalNonFinitePanics(t *testing.T) {
	for _, dim := range []int{2, 3} {
		reg := geom.MustRegion(1000, dim)
		for _, n := range []int{16, denseCutoff(dim), denseCutoff(dim) + 1} {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				what := fmt.Sprintf("dim %d, n %d, coordinate %v", dim, n, v)
				pts := reg.UniformPoints(xrand.New(53), n)
				warm := NewWorkspace()
				warm.SetKinetic(true)
				warm.CriticalKinetic(pts, dim, nil)
				pts[n/2].Y = v
				expectNonFinitePanic(t, "Critical, "+what, func() { NewWorkspace().Critical(pts, dim) })
				expectNonFinitePanic(t, "CriticalKinetic, "+what, func() { warm.CriticalKinetic(pts, dim, []int32{int32(n / 2)}) })
			}
		}
	}
}

// denseCriticalPlacements are the tie-heavy and degenerate placements of
// TestDenseCriticalMatchesStrictKruskal, n points each on the integer
// lattice (so squared distances are exact): a lattice, coincident triples
// over random bases, equal gaps on a line (d2 = 25 in 2-D, 49 in 3-D),
// and, in 3-D, a flat placement whose Z alternates +0 and -0 (the kernel
// for flat placements) and random points off any plane.
func denseCriticalPlacements(rng *xrand.Rand, n, dim int) map[string][]geom.Point {
	lattice, triples, line := make([]geom.Point, n), make([]geom.Point, n), make([]geom.Point, n)
	side := int(math.Ceil(math.Pow(float64(n), 1/float64(dim))))
	coord := func() float64 { return math.Floor(rng.Range(0, 1000)) }
	var base geom.Point
	for i := range lattice {
		lattice[i] = geom.Point{X: float64(3 * (i % side)), Y: float64(3 * (i / side % side))}
		// Point 0 alone, then triples, so n = 2 and n = 3 are not all
		// coincident either.
		if (i+2)%3 == 0 {
			base = geom.Point{X: coord(), Y: coord()}
			if dim == 3 {
				base.Z = coord()
			}
		}
		triples[i] = base
		line[i] = geom.Point{X: float64(3 * i), Y: float64(4 * i)}
		if dim == 3 {
			lattice[i].Z = float64(3 * (i / (side * side)))
			line[i] = geom.Point{X: float64(2 * i), Y: float64(3 * i), Z: float64(6 * i)}
		}
	}
	out := map[string][]geom.Point{"lattice": lattice, "coincident": triples, "collinear": line}
	if dim == 3 {
		flat, cloud := make([]geom.Point, n), make([]geom.Point, n)
		for i := range flat {
			flat[i] = geom.Point{X: coord(), Y: coord(), Z: math.Copysign(0, float64(i%2)-0.5)}
			cloud[i] = geom.Point{X: coord(), Y: coord(), Z: coord()}
		}
		out["flat-signed-zero"], out["cloud"] = flat, cloud
	}
	return out
}

// TestDenseCriticalMatchesStrictKruskal checks the dense Prim through both
// of its readers on ties and degenerate placements, at n = 2, 3 and up to
// the dense cutoff (checkStrictSequence): Critical (denseCritical) must
// return the bits of strict Kruskal's largest edge and Profile (densePrim)
// its profile's observables, however the kernels break their ties.
func TestDenseCriticalMatchesStrictKruskal(t *testing.T) {
	rng := xrand.New(29)
	for _, dim := range []int{2, 3} {
		for _, n := range []int{2, 3, denseCutoff(dim) - 1, denseCutoff(dim)} {
			for name, pts := range denseCriticalPlacements(rng, n, dim) {
				t.Run(fmt.Sprintf("dim%d/n%d/%s", dim, n, name), func(t *testing.T) {
					checkStrictSequence(t, NewWorkspace(), pts, dim)
				})
			}
		}
	}
}
