package graph

import (
	"slices"
	"testing"

	"adhocnet/internal/geomtest"
	"adhocnet/internal/xrand"
)

// FuzzKineticMatchesRebuild drives a kinetic workspace through a short
// trajectory over an arbitrary fuzzed placement and cross-checks every step
// against a from-scratch rebuild: the replayed connectivity profile must be
// bitwise identical. The per-step moved fraction cycles through sparse,
// near-threshold, and dirty values so every branch of ProfileKinetic —
// repair, dirty fallback with re-prime, dense-cutoff plain path — runs
// against the same oracle. This is the property the kinetic MST repair
// rests on: incremental never means approximate.
func FuzzKineticMatchesRebuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 16, 0, 16, 0})          // coincident pair
	f.Add([]byte{0, 1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 32}) // dim 1: no repair path
	seed := []byte{1}
	for i := 0; i < 90; i++ { // dim 2, above the dense cutoff: repair engages
		x := uint16(i * 2654435761)
		seed = append(seed, byte(x), byte(x>>8), byte(x>>7), byte(x>>12))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, dim := geomtest.DecodeFuzzPoints(data, 120)
		if len(pts) == 0 {
			return
		}
		var h uint64 = 14695981039346656037
		for _, b := range data {
			h = (h ^ uint64(b)) * 1099511628211
		}
		rng := xrand.New(h)

		wsK := NewWorkspace()
		wsR := NewWorkspace()
		wsK.SetKinetic(true)
		moveFracs := []float64{0.03, 0.15, 0.4} // repair, near-threshold, dirty fallback
		var moved []int32
		for step := 0; step < 7; step++ {
			if step > 0 {
				moved = moved[:0]
				frac := moveFracs[(step-1)%len(moveFracs)]
				for i := range pts {
					if rng.Float64() >= frac {
						continue
					}
					p := pts[i]
					p.X += rng.Range(-4, 4)
					if dim >= 2 {
						p.Y += rng.Range(-4, 4)
					}
					if dim >= 3 {
						p.Z += rng.Range(-4, 4)
					}
					if p != pts[i] {
						pts[i] = p
						moved = append(moved, int32(i))
					}
				}
			}
			got := wsK.ProfileKinetic(pts, dim, moved)
			want := wsR.Profile(pts, dim)
			if got.n != want.n ||
				!slices.Equal(got.mergeRadii, want.mergeRadii) ||
				!slices.Equal(got.largestAfter, want.largestAfter) {
				t.Fatalf("step %d (%d moved, n=%d, dim=%d): kinetic profile differs from rebuild",
					step, len(moved), len(pts), dim)
			}
		}
	})
}
