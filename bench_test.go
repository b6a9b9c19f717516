package adhocnet_test

// One benchmark per figure and theory experiment of the paper, plus the
// ablation benches called out in DESIGN.md. Each figure benchmark runs its
// experiment end to end on a benchmark-sized preset (same code path as
// `repro -preset quick/paper`, scaled down so -bench=. completes quickly);
// use cmd/repro for full-scale regeneration.

import (
	"context"
	"math"
	"testing"

	"adhocnet/internal/core"
	"adhocnet/internal/experiments"
	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
	"adhocnet/internal/spatial"
	"adhocnet/internal/xrand"
)

// benchPreset is the smallest preset that still exercises every stage of an
// experiment (stationary estimation, mobile estimation, fixed-range
// evaluation).
func benchPreset() experiments.Preset {
	return experiments.Preset{
		Name:               "bench",
		Iterations:         2,
		Steps:              60,
		StationarySamples:  100,
		Sides:              []float64{256, 1024},
		StationaryQuantile: 0.99,
		Seed:               1,
		Workers:            1,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	p := benchPreset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 2-9 of the paper's evaluation.

func BenchmarkFig2RatiosWaypoint(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3RatiosDrunkard(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4LargestCompWaypoint(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5LargestCompDrunkard(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6ComponentTargets(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7PStationarySweep(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8PauseSweep(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9SpeedSweep(b *testing.B)          { benchExperiment(b, "fig9") }

// Theory experiments (Sections 2-3).

func BenchmarkT1Occupancy(b *testing.B)       { benchExperiment(b, "t1") }
func BenchmarkT2OneDimThreshold(b *testing.B) { benchExperiment(b, "t2") }
func BenchmarkT3GapPattern(b *testing.B)      { benchExperiment(b, "t3") }

// Extensions / ablations.

func BenchmarkExtDirectionModel(b *testing.B)      { benchExperiment(b, "ext-direction") }
func BenchmarkExtEnergySavings(b *testing.B)       { benchExperiment(b, "ext-energy") }
func BenchmarkExtQuantileSensitivity(b *testing.B) { benchExperiment(b, "ext-quantile") }
func BenchmarkExtStructure(b *testing.B)           { benchExperiment(b, "ext-structure") }
func BenchmarkExtTwoDimTheory(b *testing.B)        { benchExperiment(b, "ext-2dtheory") }
func BenchmarkExtMobilityQuantity(b *testing.B)    { benchExperiment(b, "ext-quantity") }
func BenchmarkExtRangeAssignment(b *testing.B)     { benchExperiment(b, "ext-rangeassign") }
func BenchmarkExtDataMule(b *testing.B)            { benchExperiment(b, "ext-datamule") }

// Ablation: profile-based fixed-range evaluation vs the paper's direct
// per-step graph rebuild (DESIGN.md, "Key algorithmic decision").

func ablationNetwork() (core.Network, core.RunConfig) {
	l := 4096.0
	net := core.Network{
		Nodes:  64,
		Region: geom.MustRegion(l, 2),
		Model:  mobility.PaperWaypoint(l),
	}
	cfg := core.RunConfig{Iterations: 2, Steps: 200, Seed: 1, Workers: 1}
	return net, cfg
}

func BenchmarkAblationFixedRangeProfile(b *testing.B) {
	net, cfg := ablationNetwork()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateFixedRange(context.Background(), net, cfg, 1200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFixedRangeDirect(b *testing.B) {
	net, cfg := ablationNetwork()
	for i := 0; i < b.N; i++ {
		if _, err := core.DirectFixedRange(context.Background(), net, cfg, 1200); err != nil {
			b.Fatal(err)
		}
	}
}

// Core micro-benchmarks sizing the per-snapshot cost, from the paper's
// largest configuration (n = 128 in [0,16384]^2, kept at the same density
// for larger n) up to the scaling regimes the grid-accelerated MST targets.
// The workspace variants measure the steady-state simulation path (reused
// scratch, expected 0 allocs/op); the dense-Prim baselines quantify the
// GeoMST speedup (DESIGN.md, "Grid-accelerated MST").

func BenchmarkSnapshotProfileN128(b *testing.B)  { benchSnapshotProfile(b, 128) }
func BenchmarkSnapshotProfileN512(b *testing.B)  { benchSnapshotProfile(b, 512) }
func BenchmarkSnapshotProfileN2048(b *testing.B) { benchSnapshotProfile(b, 2048) }

// BenchmarkSnapshotProfileN16384 is the scaling regime of arXiv:0806.2351,
// where late annulus rounds scan only the points outside the giant
// component.
func BenchmarkSnapshotProfileN16384(b *testing.B) { benchSnapshotProfile(b, 16384) }

func benchSnapshotProfile(b *testing.B, n int) {
	pts := benchPlacement(n)
	ws := graph.NewWorkspace()
	ws.Profile(pts, 2) // warm the workspace buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Profile(pts, 2)
	}
}

// benchPlacement samples n points at the paper's n=128 density (128 nodes in
// [0,16384]^2), so all sizes probe the same sparse regime.
func benchPlacement(n int) []geom.Point {
	side := 16384 * math.Sqrt(float64(n)/128)
	reg := geom.MustRegion(side, 2)
	return reg.UniformPoints(xrand.New(1), n)
}

// BenchmarkSnapshotClustered guards snapshot-profile behavior on non-uniform
// inputs against the uniform baseline at the same n and region, across every
// spatial backend: the k-cluster placement packs 2048 nodes into 8 dense
// islands, the adversarial density for a CSR cell grid tuned for uniform
// points (many points per cell inside islands, long empty annulus sweeps
// between them) and the case the k-d tree backend exists for. The auto
// backend must land on the winner of each placement, and steady state must
// stay 0 allocs/op on every variant.
func BenchmarkSnapshotClustered(b *testing.B) {
	const n = 2048
	side := 16384 * math.Sqrt(float64(n)/128)
	reg := geom.MustRegion(side, 2)
	run := func(b *testing.B, pts []geom.Point, backend spatial.Backend) {
		ws := graph.NewWorkspace()
		ws.SetSpatialBackend(backend)
		ws.Profile(pts, 2) // warm the workspace buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.Profile(pts, 2)
		}
	}
	place := mobility.Clusters{Clusters: 8, Radius: 0.05 * side}
	clustered := make([]geom.Point, n)
	place.Fill(xrand.New(1), reg, clustered)
	uniform := reg.UniformPoints(xrand.New(1), n)
	for _, backend := range []spatial.Backend{spatial.BackendAuto, spatial.BackendGrid, spatial.BackendKDTree} {
		b.Run("clustered/"+backend.String(), func(b *testing.B) { run(b, clustered, backend) })
		b.Run("uniform/"+backend.String(), func(b *testing.B) { run(b, uniform, backend) })
	}
}

func BenchmarkDensePrimMSTN128(b *testing.B)  { benchDensePrim(b, 128) }
func BenchmarkDensePrimMSTN512(b *testing.B)  { benchDensePrim(b, 512) }
func BenchmarkDensePrimMSTN2048(b *testing.B) { benchDensePrim(b, 2048) }

func benchDensePrim(b *testing.B, n int) {
	pts := benchPlacement(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.PrimMST(pts)
	}
}

func BenchmarkNearestNeighborN128(b *testing.B)  { benchNearestNeighbor(b, 128) }
func BenchmarkNearestNeighborN2048(b *testing.B) { benchNearestNeighbor(b, 2048) }

func benchNearestNeighbor(b *testing.B, n int) {
	pts := benchPlacement(n)
	dst := make([]float64, n)
	var ix spatial.Index
	spatial.NearestNeighborDistancesInto(dst, pts, &ix) // warm the grid storage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spatial.NearestNeighborDistancesInto(dst, pts, &ix)
	}
}

func BenchmarkStationarySampleN128(b *testing.B) {
	reg := geom.MustRegion(16384, 2)
	for i := 0; i < b.N; i++ {
		if _, err := core.StationaryCriticalSample(context.Background(), reg, 128, 50, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
