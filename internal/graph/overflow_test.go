package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"adhocnet/internal/geom"
	"adhocnet/internal/spatial"
	"adhocnet/internal/xrand"
)

// returnsWithin fails the test when call does not return within the
// deadline; the call runs on its own goroutine, so a hang is reported
// instead of stalling the whole test binary.
func returnsWithin(t *testing.T, what string, deadline time.Duration, call func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		call()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("%s: did not return within %v", what, deadline)
	}
}

// isThresholdRadius reports whether r is the least float64 with r*r >= d2.
func isThresholdRadius(r, d2 float64) bool {
	return r*r >= d2 && (r == 0 || math.Nextafter(r, 0)*math.Nextafter(r, 0) < d2)
}

// TestThresholdRadiusIsLeast checks thresholdRadius against its definition
// over the whole non-negative range: the normal range on random exponents,
// the largest finite squares, +Inf (whose answer is the least r with r*r =
// +Inf), and the subnormals and small normals, where math.Sqrt can be many
// ulps from the answer because r*r loses precision.
func TestThresholdRadiusIsLeast(t *testing.T) {
	rng := xrand.New(5)
	d2s := []float64{
		0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1070, 0x1p-1040, 0x1p-1022,
		math.Nextafter(0x1p-1022, 0), 1, 2, 3, 25, 1e300, math.MaxFloat64,
		math.Nextafter(math.MaxFloat64, 0), math.Inf(1),
	}
	for range 2000 {
		d2s = append(d2s, math.Ldexp(1+rng.Float64(), int(rng.Range(-1074, 1024))))
	}
	returnsWithin(t, "thresholdRadius", 10*time.Second, func() {
		for _, d2 := range d2s {
			if r := thresholdRadius(d2); !isThresholdRadius(r, d2) {
				t.Errorf("thresholdRadius(%v) = %v, not the least r with r*r >= d2", d2, r)
			}
		}
	})
	if r := thresholdRadius(math.Inf(1)); math.IsInf(r, 0) || !math.IsInf(r*r, 1) {
		t.Errorf("thresholdRadius(+Inf) = %v, want the least finite r whose square overflows", r)
	}
}

// overflowPlacements are finite placements whose squared distances
// overflow: every pair's ("apart", points 1e200 apart on a line); every
// pair's but the tree's ("spread", consecutive points 1e150 apart, so the
// tree's squared distances are finite and the far pairs' are +Inf); or a
// line like spread and one point 1e300 away ("bridge"), which the annulus
// rounds reach only after r*r has overflowed. Half the points carry a
// small Y so the placements are not collinear; in 3-D every third point
// also leaves the plane.
func overflowPlacements(n, dim int) map[string][]geom.Point {
	apart, spread, bridge := make([]geom.Point, n), make([]geom.Point, n), make([]geom.Point, n)
	for i := range apart {
		apart[i] = geom.Point{X: float64(i) * 1e200, Y: float64(i % 2)}
		spread[i] = geom.Point{X: float64(i) * 1e150, Y: float64(i % 2)}
		if dim == 3 && i%3 == 0 {
			apart[i].Z, spread[i].Z = 1, 1
		}
		bridge[i] = spread[i]
	}
	bridge[n-1].X = 1e300
	return map[string][]geom.Point{"apart": apart, "spread": spread, "bridge": bridge}
}

// TestOverflowingDistancesReturn checks that GeoMST, Critical, Profile and
// the kinetic twins return on finite placements whose squared distances
// overflow, on both sides of the dense cutoff and with either backend
// forced: GeoMST with strict Kruskal's edge sequence, the others with its
// largest edge, bit for bit. The dense Prim's +Inf squared distances, the
// critical-only kernel's +Inf keys and the annulus rounds' all give
// thresholdRadius(+Inf); the k-d tree's minimum-pair query must offer a
// pair at +Inf, and the round whose r*r overflows must take every pair
// left.
func TestOverflowingDistancesReturn(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, n := range []int{2, 3, denseCutoff(dim), 300} {
			for name, pts := range overflowPlacements(n, dim) {
				for _, b := range []spatial.Backend{spatial.BackendAuto, spatial.BackendGrid, spatial.BackendKDTree} {
					what := fmt.Sprintf("dim %d, n %d, %s, %v", dim, n, name, b)
					returnsWithin(t, what, 10*time.Second, func() {
						want := strictKruskal(pts)
						crit := 0.0
						for _, e := range want {
							crit = max(crit, e.D)
						}
						if name == "apart" && !math.IsInf(crit*crit, 1) {
							t.Errorf("%s: largest edge %v does not overflow when squared", what, crit)
						}
						ws := NewWorkspace()
						ws.SetSpatialBackend(b)
						if got := ws.GeoMST(pts, dim); !slices.Equal(got, want) {
							t.Errorf("%s: GeoMST differs from strict Kruskal", what)
						}
						check := func(call string, got float64) {
							t.Helper()
							if math.Float64bits(got) != math.Float64bits(crit) {
								t.Errorf("%s: %s = %v, strict Kruskal's largest edge %v", what, call, got, crit)
							}
						}
						check("Critical", ws.Critical(pts, dim))
						check("Profile", ws.Profile(pts, dim).Critical())
						ws.SetKinetic(true)
						check("CriticalKinetic", ws.CriticalKinetic(pts, dim, nil))
						check("ProfileKinetic", ws.ProfileKinetic(pts, dim, []int32{}).Critical())
					})
				}
			}
		}
	}
}
