package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

// certifyCheck compares Critical on a warm workspace, which keeps its
// spanning tree from call to call, with Critical on a fresh one, whose
// dense path always runs the Prim, bit for bit, and counts the warm calls
// and how many of them the certificate answered.
type certifyCheck struct {
	calls, certified uint64
}

func (c *certifyCheck) run(t *testing.T, what string, warm *Workspace, pts []geom.Point, dim int) (certified uint64) {
	t.Helper()
	want := NewWorkspace().Critical(pts, dim)
	got := warm.Critical(pts, dim)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: warm Critical %v, the Prim's %v", what, got, want)
	}
	certified = warm.TakeStats().CriticalCertified
	c.calls++
	c.certified += certified
	return certified
}

// checkStrictProfile checks ws.Profile against strict Kruskal's profile
// (profilesIdentical), which is what the dense Prim's tree must reproduce.
func checkStrictProfile(t *testing.T, ws *Workspace, pts []geom.Point, dim int) {
	t.Helper()
	profilesIdentical(t, profileFromMST(len(pts), strictKruskal(pts)), ws.Profile(pts, dim))
}

// TestCriticalCertificateMatchesPrim checks denseCritical's certificate
// against the Prim it skips, bit for bit: on 2-D and 3-D trajectories at
// the paper's sizes and the 2-D cutoff, where consecutive trees mostly
// certify; on trees left by an unrelated placement or another point count;
// on the tie-heavy placements of denseCriticalPlacements, moved along
// their lattice; and where squared distances overflow, so that the tree's
// longest edge and the answer are +Inf. Both the certified path and the
// Prim must be taken. Between the trajectories' Critical calls Profile
// runs the same Prim on the same workspace, at the moved positions and on
// an unrelated placement of as many points: its profile must be strict
// Kruskal's, and it must leave the kept tree as it was, so every Critical
// call certifies exactly when it does on a workspace without them.
func TestCriticalCertificateMatchesPrim(t *testing.T) {
	rng := xrand.New(61)
	var walk certifyCheck
	for _, dim := range []int{2, 3} {
		reg := geom.MustRegion(1000, dim)
		for _, n := range []int{16, 64, 128, 192} {
			pts := reg.UniformPoints(rng, n)
			ws, plain := NewWorkspace(), NewWorkspace()
			for step := range 60 {
				what := fmt.Sprintf("walk dim %d, n %d, step %d", dim, n, step)
				certified := walk.run(t, what, ws, pts, dim)
				plain.Critical(pts, dim)
				if want := plain.TakeStats().CriticalCertified; certified != want {
					t.Fatalf("%s: %d calls certified after Profile calls, %d without them", what, certified, want)
				}
				// Half the points move up to 1% of the side per axis, as the
				// paper's models do.
				for i := range pts {
					if rng.Float64() < 0.5 {
						p := pts[i]
						p.X += rng.Range(-10, 10)
						p.Y += rng.Range(-10, 10)
						if dim == 3 {
							p.Z += rng.Range(-10, 10)
						}
						pts[i] = reg.Clamp(p)
					}
				}
				checkStrictProfile(t, ws, pts, dim)
				checkStrictProfile(t, ws, reg.UniformPoints(rng, n), dim)
			}
		}
	}
	if walk.certified == 0 || walk.certified == walk.calls {
		t.Fatalf("walks: %d of %d calls certified, want both paths taken", walk.certified, walk.calls)
	}

	var stale certifyCheck
	for _, dim := range []int{2, 3} {
		reg := geom.MustRegion(1000, dim)
		ws := NewWorkspace()
		for _, n := range []int{64, 64, 65, 16, 64} {
			stale.run(t, fmt.Sprintf("stale dim %d, n %d", dim, n), ws, reg.UniformPoints(rng, n), dim)
		}
	}
	if stale.certified != 0 {
		t.Fatalf("unrelated placements: %d of %d calls certified by a stale tree", stale.certified, stale.calls)
	}

	var ties certifyCheck
	for _, dim := range []int{2, 3} {
		for _, n := range []int{3, 16, denseCutoff(dim)} {
			placements := denseCriticalPlacements(rng, n, dim)
			for _, name := range slices.Sorted(maps.Keys(placements)) {
				pts := placements[name]
				ws := NewWorkspace()
				for step := range 8 {
					ties.run(t, fmt.Sprintf("ties dim %d, n %d, %s, step %d", dim, n, name, step), ws, pts, dim)
					// Move a few points by whole lattice steps, which keeps
					// every squared distance exact and the ties tied.
					for range max(1, n/8) {
						i := rng.Intn(n)
						pts[i].X += math.Floor(rng.Range(-3, 4))
						pts[i].Y += math.Floor(rng.Range(-3, 4))
					}
				}
			}
		}
	}
	if ties.certified == 0 || ties.certified == ties.calls {
		t.Fatalf("ties: %d of %d calls certified, want both paths taken", ties.certified, ties.calls)
	}

	for _, dim := range []int{2, 3} {
		for _, n := range []int{2, 3, 16, denseCutoff(dim)} {
			for name, pts := range overflowPlacements(n, dim) {
				var inf certifyCheck
				ws := NewWorkspace()
				what := fmt.Sprintf("overflow dim %d, n %d, %s", dim, n, name)
				inf.run(t, what, ws, pts, dim)
				inf.run(t, what+", again", ws, pts, dim)
				if inf.certified != 1 {
					t.Fatalf("%s: the Prim's own tree did not certify the same placement", what)
				}
				pts[0], pts[n-1] = pts[n-1], pts[0]
				inf.run(t, what+", ends swapped", ws, pts, dim)
			}
		}
	}
}
