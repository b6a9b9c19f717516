package adhocnet_test

// One benchmark per figure and theory experiment of the paper, plus the
// ablation benches called out in DESIGN.md. Each figure benchmark runs its
// experiment end to end on a benchmark-sized preset (same code path as
// `repro -preset quick/paper`, scaled down so -bench=. completes quickly);
// use cmd/repro for full-scale regeneration.

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// BenchmarkEstimateRangesComponentTargets is the component-target path of
// EstimateRanges end to end: one iteration of 64 drunkard snapshots at n =
// 4096 in [0,16384]^2 (clustered-islands' region and mobility), uniform and
// in 8 islands of radius 600, on one worker. Each snapshot builds a
// profile and keeps its largest-component curve for the iteration's
// bisection, so B/op is that retained storage plus the trajectory's own
// (DESIGN.md "Component targets keep largest-component curves" has the
// rows).
func BenchmarkEstimateRangesComponentTargets(b *testing.B) {
	const n, l = 4096, 16384.0
	targets := core.RangeTargets{ComponentFractions: core.PaperTargets().ComponentFractions}
	cfg := core.RunConfig{Iterations: 1, Steps: 64, Seed: 1, Workers: 1}
	for _, pl := range []struct {
		name string
		p    mobility.Placement
	}{
		{"uniform", nil},
		{"islands", mobility.Clusters{Clusters: 8, Radius: 600}},
	} {
		net := core.Network{
			Nodes:     n,
			Region:    geom.MustRegion(l, 2),
			Model:     mobility.Drunkard{PStationary: 0.4, PPause: 0.5, M: 40},
			Placement: pl.p,
		}
		b.Run(pl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateRanges(context.Background(), net, cfg, targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Core micro-benchmarks sizing the per-snapshot cost, from the paper's
// largest configuration (n = 128 in [0,16384]^2, kept at the same density
// for larger n) up to the scaling regimes the grid-accelerated MST targets.
// The workspace variants measure the steady-state simulation path (reused
// scratch, expected 0 allocs/op); the dense-Prim baselines quantify the
// GeoMST speedup (DESIGN.md, "Grid-accelerated MST").

// The paper's sizes (n = 16 to 128) and the pair around the 2-D dense
// cutoff (192 takes the dense Prim, 256 the annulus rounds) are the
// per-layer rows of the paper-figs workload.
func BenchmarkSnapshotProfileN16(b *testing.B)   { benchSnapshotProfile(b, 16, 2) }
func BenchmarkSnapshotProfileN32(b *testing.B)   { benchSnapshotProfile(b, 32, 2) }
func BenchmarkSnapshotProfileN64(b *testing.B)   { benchSnapshotProfile(b, 64, 2) }
func BenchmarkSnapshotProfileN128(b *testing.B)  { benchSnapshotProfile(b, 128, 2) }
func BenchmarkSnapshotProfileN192(b *testing.B)  { benchSnapshotProfile(b, 192, 2) }
func BenchmarkSnapshotProfileN256(b *testing.B)  { benchSnapshotProfile(b, 256, 2) }
func BenchmarkSnapshotProfileN512(b *testing.B)  { benchSnapshotProfile(b, 512, 2) }
func BenchmarkSnapshotProfileN2048(b *testing.B) { benchSnapshotProfile(b, 2048, 2) }

// The pair around the 3-D dense cutoff: 240 takes the dense Prim, 256 the
// annulus rounds.
func BenchmarkSnapshotProfile3DN240(b *testing.B) { benchSnapshotProfile(b, 240, 3) }
func BenchmarkSnapshotProfile3DN256(b *testing.B) { benchSnapshotProfile(b, 256, 3) }

// BenchmarkSnapshotProfileN16384 is the scaling regime of arXiv:0806.2351,
// where late annulus rounds scan only the points outside the giant
// component.
func BenchmarkSnapshotProfileN16384(b *testing.B) { benchSnapshotProfile(b, 16384, 2) }

func benchSnapshotProfile(b *testing.B, n, dim int) {
	pts := benchPlacement(n, dim)
	ws := graph.NewWorkspace()
	ws.Profile(pts, dim) // warm the workspace buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Profile(pts, dim)
	}
}

// The critical-range-only twins of the paper-size rows above: the snapshot
// cost of a time-targets-only run (figures 2-5, 7-9), which runs the
// critical-only dense Prim below the dense cutoff and skips the tree sort
// and the profile replay above it (DESIGN.md "Critical-only snapshots").
// Each row cycles through benchCriticalPlacements independent placements,
// so below the cutoff every call finds the workspace's kept tree from
// another placement: the certificate fails and the Prim runs. That is the
// cold path; the Walk rows below are the warm one.
func BenchmarkSnapshotCriticalN16(b *testing.B)  { benchSnapshotCritical(b, 16, 2) }
func BenchmarkSnapshotCriticalN64(b *testing.B)  { benchSnapshotCritical(b, 64, 2) }
func BenchmarkSnapshotCriticalN128(b *testing.B) { benchSnapshotCritical(b, 128, 2) }
func BenchmarkSnapshotCriticalN256(b *testing.B) { benchSnapshotCritical(b, 256, 2) }

// The 3-D rows: the paper's largest n, and the 3-D dense cutoff.
func BenchmarkSnapshotCritical3DN128(b *testing.B) { benchSnapshotCritical(b, 128, 3) }
func BenchmarkSnapshotCritical3DN240(b *testing.B) { benchSnapshotCritical(b, 240, 3) }

// benchCriticalPlacements is the number of independent placements the
// SnapshotCritical rows cycle through.
const benchCriticalPlacements = 8

func benchSnapshotCritical(b *testing.B, n, dim int) {
	var placements [benchCriticalPlacements][]geom.Point
	for i := range placements {
		placements[i] = benchPlacementSeed(n, dim, uint64(i+1))
	}
	ws := graph.NewWorkspace()
	for _, pts := range placements {
		ws.Critical(pts, dim) // warm the workspace buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Critical(placements[i%len(placements)], dim)
	}
}

// The warm path of the critical range: consecutive steps of the paper's
// waypoint and drunkard models at n = sqrt(l), pre-generated and evaluated
// in order on one workspace, as a time-targets run walks a trajectory. The
// last step's kept tree mostly certifies the next step's answer; the wrap
// from the last step back to the first is one cold call in
// benchWalkSteps.
func BenchmarkSnapshotCriticalWalkN64(b *testing.B)  { benchSnapshotCriticalWalk(b, 64) }
func BenchmarkSnapshotCriticalWalkN128(b *testing.B) { benchSnapshotCriticalWalk(b, 128) }

// benchWalkSteps is the number of consecutive steps a Walk row cycles
// through.
const benchWalkSteps = 256

func benchSnapshotCriticalWalk(b *testing.B, n int) {
	l := float64(n * n)
	reg := geom.MustRegion(l, 2)
	for _, m := range []mobility.Model{mobility.PaperWaypoint(l), mobility.PaperDrunkard(l)} {
		b.Run(m.Name(), func(b *testing.B) {
			st, err := m.NewState(xrand.New(1), reg, n, nil)
			if err != nil {
				b.Fatal(err)
			}
			steps := make([][]geom.Point, benchWalkSteps)
			for i := range steps {
				steps[i] = slices.Clone(st.Positions())
				st.Step()
			}
			ws := graph.NewWorkspace()
			for _, pts := range steps {
				ws.Critical(pts, 2) // warm the workspace buffers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Critical(steps[i%len(steps)], 2)
			}
		})
	}
}

// benchPlacement samples n points in a dim-dimensional cube at the paper's
// n=128 density (128 nodes in [0,16384]^dim), so all sizes probe the same
// sparse regime.
func benchPlacement(n, dim int) []geom.Point { return benchPlacementSeed(n, dim, 1) }

// benchPlacementSeed is benchPlacement drawn from the given seed.
func benchPlacementSeed(n, dim int, seed uint64) []geom.Point {
	side := 16384 * math.Pow(float64(n)/128, 1/float64(dim))
	reg := geom.MustRegion(side, dim)
	return reg.UniformPoints(xrand.New(seed), n)
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

// BenchmarkPointGraphBackends sizes the fixed-radius point graph (the
// per-snapshot build of the structure metrics) on each spatial backend:
// uniform, Gaussian hotspots (4, sigma 0.1 side) and two clusterings (8
// islands of radius 0.05 side and 0.01 side) at the paper's n=128 density,
// with the range at 0.25, 1 and 2 times the mean spacing side/sqrt(n). It
// shows whether auto's pick, sized for the MST's starting radius, also
// suits PointGraph's radius (ROADMAP "One MST backend above the dense
// cutoff").
func BenchmarkPointGraphBackends(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		side := 16384 * math.Sqrt(float64(n)/128)
		reg := geom.MustRegion(side, 2)
		spacing := side / math.Sqrt(float64(n))
		for _, pl := range []struct {
			name string
			p    mobility.Placement
		}{
			{"uniform", mobility.Uniform{}},
			{"hotspots", mobility.GaussianHotspots{Hotspots: 4, Sigma: 0.1 * side}},
			{"clusters05", mobility.Clusters{Clusters: 8, Radius: 0.05 * side}},
			{"clusters01", mobility.Clusters{Clusters: 8, Radius: 0.01 * side}},
		} {
			pts := make([]geom.Point, n)
			pl.p.Fill(xrand.New(1), reg, pts)
			for _, mult := range []float64{0.25, 1, 2} {
				for _, backend := range []spatial.Backend{spatial.BackendAuto, spatial.BackendGrid, spatial.BackendKDTree} {
					name := fmt.Sprintf("n%d/%s/r%gs/%v", n, pl.name, mult, backend)
					b.Run(name, func(b *testing.B) {
						ws := graph.NewWorkspace()
						ws.SetSpatialBackend(backend)
						ws.PointGraph(pts, 2, mult*spacing) // warm the workspace buffers
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							ws.PointGraph(pts, 2, mult*spacing)
						}
					})
				}
			}
		}
	}
}

func BenchmarkDensePrimMSTN128(b *testing.B)  { benchDensePrim(b, 128) }
func BenchmarkDensePrimMSTN512(b *testing.B)  { benchDensePrim(b, 512) }
func BenchmarkDensePrimMSTN2048(b *testing.B) { benchDensePrim(b, 2048) }

func benchDensePrim(b *testing.B, n int) {
	pts := benchPlacement(n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.PrimMST(pts)
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
