package core

// Cross-validation of the workspace snapshot pipeline against the
// allocating reference profiles: with a fixed seed, every estimate must be
// bit-identical to what a trajectory evaluated through graph.NewProfile
// (GeoMST's annulus rounds at every n, where the pipeline runs a dense Prim
// below the dense cutoff) produces, and independent of the worker count.

import (
	"context"
	"fmt"
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
// mirroring runIterations's seed derivation exactly. It keeps every
// snapshot's whole profile and inverts the component targets over them
// (profileRadiusForAverageLargest).
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
			compVals[i][iter] = profileRadiusForAverageLargest(profiles, net.Nodes, g)
		}
	}
	return timeVals, compVals
}

// profileRadiusForAverageLargest is radiusForAverageLargest over whole
// retained profiles, as EstimateRanges ran it when it cloned every
// snapshot's profile: the same bisection, probes and upper bound, with
// Profile.LargestAt and Profile.Critical in place of the curves.
func profileRadiusForAverageLargest(profiles []*graph.Profile, nodes int, frac float64) float64 {
	target := frac * float64(nodes)
	avgAt := func(r float64) float64 {
		sum := 0.0
		for _, p := range profiles {
			sum += float64(p.LargestAt(r))
		}
		return sum / float64(len(profiles))
	}
	hi := 0.0
	for _, p := range profiles {
		if c := p.Critical(); c > hi {
			hi = c
		}
	}
	if avgAt(0) >= target {
		return 0
	}
	lo := 0.0
	for iter := 0; iter < 64 && hi-lo > 1e-12*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if avgAt(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestComponentTargetsMatchProfileBisection pins the component targets,
// which EstimateRanges inverts over each snapshot's largest-component curve,
// to the bisection over whole profiles (denseEstimateReference), bit for
// bit: in 1-D, 2-D and 3-D, on the sequential scheduler path and on the
// pooled one with kinetic repair off and forced on, for the paper's targets,
// target 1 (the largest critical radius) and target 1/n, which avgAt(0)
// already meets.
func TestComponentTargetsMatchProfileBisection(t *testing.T) {
	const n = 64
	targets := RangeTargets{ComponentFractions: []float64{0.9, 0.75, 0.5, 1, 1.0 / n}}
	for _, dim := range []int{1, 2, 3} {
		l := 4096 * math.Pow(n/128.0, 1/float64(dim))
		net := Network{Nodes: n, Region: geom.MustRegion(l, dim), Model: mobility.PaperDrunkard(l)}
		for _, sched := range []struct {
			name   string
			pooled bool
			cfg    RunConfig
		}{
			{"sequential", false, RunConfig{Iterations: 2, Steps: 10, Seed: 31, Workers: 1}},
			{"pooled", true, RunConfig{Iterations: 1, Steps: 10, Seed: 31, Workers: 3, Kinetic: KineticOff}},
			{"pooled-kinetic", true, RunConfig{Iterations: 1, Steps: 10, Seed: 31, Workers: 3, Kinetic: KineticOn}},
		} {
			name := fmt.Sprintf("dim %d, %s", dim, sched.name)
			if _, inner, _ := sched.cfg.Levels(); (inner > 1) != sched.pooled {
				t.Fatalf("%s: %d snapshot evaluators", name, inner)
			}
			est, err := EstimateRanges(context.Background(), net, sched.cfg, targets)
			if err != nil {
				t.Fatal(err)
			}
			_, want := denseEstimateReference(t, net, sched.cfg, targets)
			for i, g := range targets.ComponentFractions {
				for iter, w := range want[i] {
					if got := est.Component[i].PerIteration[iter]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s: target %v iter %d: %v, profile bisection %v", name, g, iter, got, w)
					}
					if g == 1.0/n && w != 0 {
						t.Fatalf("%s: target 1/n iter %d: %v, want 0 (met at range 0)", name, iter, w)
					}
				}
			}
		}
	}
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
