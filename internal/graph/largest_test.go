package graph

import (
	"fmt"
	"math"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

// checkLargestCurve checks the profile's largest-component curve against the
// profile: LargestAt must agree at every merge radius, at both float
// neighbours of each, at ±0 and at +Inf, and the curve must end with the
// critical radius's bits at size n (core's bisection takes its upper bound
// from that last step).
func checkLargestCurve(t *testing.T, what string, p *Profile, curve LargestCurve) {
	t.Helper()
	probes := []float64{0, math.Copysign(0, -1), math.Inf(1)}
	for _, r := range p.mergeRadii {
		probes = append(probes, r, math.Nextafter(r, math.Inf(-1)), math.Nextafter(r, math.Inf(1)))
	}
	for _, r := range probes {
		if got, want := curve.LargestAt(r), p.LargestAt(r); got != want {
			t.Fatalf("%s: LargestAt(%v) = %d from the curve, %d from the profile", what, r, got, want)
		}
	}
	if p.n < 2 {
		return
	}
	last := curve[len(curve)-1]
	if math.Float64bits(last.R) != math.Float64bits(p.Critical()) || int(last.Size) != p.n {
		t.Fatalf("%s: last step (%v, %d), want the critical radius %v at size %d", what, last.R, last.Size, p.Critical(), p.n)
	}
}

// oneDimPlacements are the 1-D placements of TestLargestCurveMatchesProfile:
// uniform X, coincident triples, -0, +0, -1 and +1 in turn (the sorted
// gaps include -0), and -MaxFloat64 and +MaxFloat64 in turn, whose one
// gap between the two spots is +Inf.
func oneDimPlacements(rng *xrand.Rand, n int) map[string][]geom.Point {
	uniform, triples, zeros, huge := make([]geom.Point, n), make([]geom.Point, n), make([]geom.Point, n), make([]geom.Point, n)
	for i := range uniform {
		uniform[i].X = rng.Range(0, 1000)
		triples[i].X = uniform[i/3].X
		zeros[i].X = math.Copysign(float64(i%4/2), float64(i%2)-0.5)
		huge[i].X = math.Copysign(math.MaxFloat64, float64(i%2)-0.5)
	}
	return map[string][]geom.Point{"uniform": uniform, "coincident": triples, "signed-zero": zeros, "overflow": huge}
}

// TestLargestCurveMatchesProfile checks AppendLargestCurve and
// LargestCurve.LargestAt against Profile.LargestAt (checkLargestCurve) at n
// = 2, 3 and 1024 and on both sides of the dense cutoff: in 2-D and 3-D on
// uniform, island, lattice-tie, coincident-triple, stacked and collinear
// placements and on overflowPlacements, whose merge radii square to +Inf,
// and in 1-D on oneDimPlacements, with its -0 and +Inf gaps. One buffer is
// reused for every curve, as core's result slots reuse theirs.
func TestLargestCurveMatchesProfile(t *testing.T) {
	rng := xrand.New(41)
	ws := NewWorkspace()
	var buf LargestCurve
	check := func(what string, pts []geom.Point, dim int) {
		p := ws.Profile(pts, dim)
		buf = p.AppendLargestCurve(buf[:0])
		checkLargestCurve(t, what, p, buf)
	}
	for _, dim := range []int{1, 2, 3} {
		cut := denseCutoff(dim)
		for _, n := range []int{2, 3, cut, cut + 1, 1024} {
			placements := oneDimPlacements(rng, n)
			if dim > 1 {
				placements = criticalPlacements(rng, n, dim)
				for name, pts := range overflowPlacements(n, dim) {
					placements["overflow-"+name] = pts
				}
			}
			for name, pts := range placements {
				check(fmt.Sprintf("dim %d, n %d, %s", dim, n, name), pts, dim)
			}
		}
	}
}

// TestAppendLargestCurveSteadyStateAllocs checks that appending a
// snapshot's curve into a buffer that has already held one allocates
// nothing, which is what keeps EstimateRanges' component-target
// evaluation at 0 allocs per snapshot.
func TestAppendLargestCurveSteadyStateAllocs(t *testing.T) {
	reg := geom.MustRegion(1000, 2)
	pts := reg.UniformPoints(xrand.New(3), 512)
	ws := NewWorkspace()
	buf := ws.Profile(pts, 2).AppendLargestCurve(nil)
	if allocs := testing.AllocsPerRun(20, func() {
		buf = ws.Profile(pts, 2).AppendLargestCurve(buf[:0])
	}); allocs != 0 {
		t.Fatalf("%v allocs per snapshot, want 0", allocs)
	}
}
