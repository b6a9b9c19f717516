package graph

import (
	"math"
	"testing"

	"adhocnet/internal/xrand"
)

// benchProfileStep measures the steady-state per-step cost of the profile
// path on a drift trajectory (~2% movers per step, tiny hops) — kinetic
// repair vs from-scratch rebuild. The recorded numbers feed
// BENCH_kinetic.json.
func benchProfileStep(b *testing.B, n int, clustered, kinetic bool) {
	rng := xrand.New(99)
	w := newKineticWalk(rng, n, 2, clustered, 0.02, 0.002)
	ws := NewWorkspace()
	ws.SetKinetic(kinetic)
	ws.ProfileKinetic(w.pts, 2, nil) // prime the caches / warm the pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved := w.step()
		if kinetic {
			ws.ProfileKinetic(w.pts, 2, moved)
		} else {
			ws.Profile(w.pts, 2)
		}
	}
}

// benchGraphStep is benchProfileStep's rebuild row for the
// communication-graph path, which has no kinetic repair.
func benchGraphStep(b *testing.B, n int) {
	rng := xrand.New(99)
	w := newKineticWalk(rng, n, 2, false, 0.02, 0.002)
	r := 2.2 / math.Sqrt(float64(n)) // around the connectivity threshold
	ws := NewWorkspace()
	ws.PointGraph(w.pts, 2, r) // warm the pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step()
		ws.PointGraph(w.pts, 2, r)
	}
}

func BenchmarkProfileStepRebuildUniform2048(b *testing.B)    { benchProfileStep(b, 2048, false, false) }
func BenchmarkProfileStepKineticUniform2048(b *testing.B)    { benchProfileStep(b, 2048, false, true) }
func BenchmarkProfileStepRebuildClustered2048(b *testing.B)  { benchProfileStep(b, 2048, true, false) }
func BenchmarkProfileStepKineticClustered2048(b *testing.B)  { benchProfileStep(b, 2048, true, true) }
func BenchmarkProfileStepRebuildUniform16384(b *testing.B)   { benchProfileStep(b, 16384, false, false) }
func BenchmarkProfileStepKineticUniform16384(b *testing.B)   { benchProfileStep(b, 16384, false, true) }
func BenchmarkProfileStepRebuildClustered16384(b *testing.B) { benchProfileStep(b, 16384, true, false) }
func BenchmarkProfileStepKineticClustered16384(b *testing.B) { benchProfileStep(b, 16384, true, true) }

func BenchmarkGraphStepRebuildUniform2048(b *testing.B)  { benchGraphStep(b, 2048) }
func BenchmarkGraphStepRebuildUniform16384(b *testing.B) { benchGraphStep(b, 16384) }
