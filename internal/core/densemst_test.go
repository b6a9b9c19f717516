package core

// Cross-validation of the workspace snapshot pipeline against the
// allocating reference profiles: with a fixed seed, every estimate must be
// bit-identical to what a trajectory evaluated through graph.NewProfile
// (GeoMST's annulus rounds at every n, where the pipeline runs a dense Prim
// below the dense cutoff) produces, and independent of the worker count.

import (
	"context"
	"math"
	"sort"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
)

// denseEstimateReference recomputes EstimateRanges' per-iteration values
// using the allocating reference profiles (graph.NewProfile1D in one
// dimension, graph.NewProfile, the annulus rounds at every n, otherwise),
// mirroring runIterations's seed derivation exactly.
func denseEstimateReference(t *testing.T, net Network, cfg RunConfig, targets RangeTargets) (timeVals, compVals [][]float64) {
	t.Helper()
	timeVals = make([][]float64, len(targets.TimeFractions))
	for i := range timeVals {
		timeVals[i] = make([]float64, cfg.Iterations)
	}
	compVals = make([][]float64, len(targets.ComponentFractions))
	for i := range compVals {
		compVals[i] = make([]float64, cfg.Iterations)
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		state, err := net.Model.NewState(seedForIteration(cfg, iter), net.Region, net.Nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		var profiles []*graph.Profile
		var criticals []float64
		for step := 0; step < cfg.Steps; step++ {
			if step > 0 {
				state.Step()
			}
			var p *graph.Profile
			if pts := state.Positions(); net.Region.Dim == 1 {
				xs := make([]float64, len(pts))
				for i, q := range pts {
					xs[i] = q.X
				}
				p = graph.NewProfile1D(xs)
			} else {
				p = graph.NewProfile(pts)
			}
			profiles = append(profiles, p)
			criticals = append(criticals, p.Critical())
		}
		sort.Float64s(criticals)
		for i, f := range targets.TimeFractions {
			timeVals[i][iter] = quantileForTimeFraction(criticals, f)
		}
		for i, g := range targets.ComponentFractions {
			compVals[i][iter] = radiusForAverageLargest(profiles, net.Nodes, g)
		}
	}
	return timeVals, compVals
}

func TestEstimateRangesUnchangedFromDensePrim(t *testing.T) {
	targets := PaperTargets()
	for _, tc := range []struct {
		name string
		net  Network
	}{
		// n = 128 in [0,16384]^2 is the paper's sparse regime, on the dense
		// Prim; n = 256 at the same density is above the dense cutoff, so
		// the annulus rounds are exercised.
		{"waypoint-sparse", testNetwork(16384, 128, quickWaypoint(16384))},
		{"waypoint-sparse-256", testNetwork(16384*math.Sqrt2, 256, quickWaypoint(16384*math.Sqrt2))},
		{"drunkard", testNetwork(512, 64, mobility.PaperDrunkard(512))},
		{"one-dim", testNetwork(1024, 96, quickWaypoint(1024))},
	} {
		net := tc.net
		if tc.name == "one-dim" {
			net.Region.Dim = 1
		}
		cfg := RunConfig{Iterations: 3, Steps: 12, Seed: 923, Workers: 2}
		est, err := EstimateRanges(context.Background(), net, cfg, targets)
		if err != nil {
			t.Fatal(err)
		}
		timeVals, compVals := denseEstimateReference(t, net, cfg, targets)
		for i := range targets.TimeFractions {
			for iter, want := range timeVals[i] {
				if got := est.Time[i].PerIteration[iter]; got != want {
					t.Fatalf("%s: time target %v iter %d: %v != dense %v",
						tc.name, targets.TimeFractions[i], iter, got, want)
				}
			}
		}
		for i := range targets.ComponentFractions {
			for iter, want := range compVals[i] {
				if got := est.Component[i].PerIteration[iter]; got != want {
					t.Fatalf("%s: component target %v iter %d: %v != dense %v",
						tc.name, targets.ComponentFractions[i], iter, got, want)
				}
			}
		}
	}
}

func TestStationaryCriticalSampleUnchangedFromDensePrim(t *testing.T) {
	reg := geom.MustRegion(16384, 2)
	got, err := StationaryCriticalSample(context.Background(), reg, 128, 40, 77, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Iterations: 40, Steps: 1, Seed: 77, Workers: 1}
	want := make([]float64, 40)
	for iter := range want {
		pts := reg.UniformPoints(seedForIteration(cfg, iter), 128)
		want[iter] = graph.NewProfile(pts).Critical()
	}
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v != dense %v (diff %g)", i, got[i], want[i], got[i]-want[i])
		}
	}
	if math.IsNaN(got[0]) {
		t.Fatal("NaN in critical sample")
	}
}
