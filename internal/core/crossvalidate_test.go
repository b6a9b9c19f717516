package core

// Cross-validation of the profile-based range estimation against an
// independent bisection procedure that only uses the fixed-range evaluator —
// the way the paper's own simulator had to find its ranges. Agreement here
// certifies the repository's one algorithmic liberty (DESIGN.md).

import (
	"context"
	"math"
	"testing"

	"adhocnet/internal/graph"
	"adhocnet/internal/xrand"
)

// seedForIteration is the random stream runIterations hands iteration iter.
func seedForIteration(cfg RunConfig, iter int) *xrand.Rand {
	return IterationSeeds(cfg)[iter]
}

// bisectRangeForUptime finds, by bisection over EvaluateFixedRange, the
// minimal radius at which the mean connected fraction reaches the target.
// The same seed gives the same trajectories as EstimateRanges, so the two
// methods see identical randomness.
func bisectRangeForUptime(t *testing.T, net Network, cfg RunConfig, target float64) float64 {
	t.Helper()
	lo, hi := 0.0, net.Region.Diameter()
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		res, err := EvaluateFixedRange(context.Background(), net, cfg, mid)
		if err != nil {
			t.Fatal(err)
		}
		if res.ConnectedFraction >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

func TestProfileEstimatesMatchBisection(t *testing.T) {
	net := testNetwork(512, 18, quickWaypoint(512))
	cfg := RunConfig{Iterations: 3, Steps: 50, Seed: 31}

	est, err := EstimateRanges(context.Background(), net, cfg, RangeTargets{TimeFractions: []float64{1, 0.9, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []float64{1, 0.9, 0.5} {
		// The profile gives per-iteration quantiles averaged across
		// iterations; bisection on the pooled connected fraction finds the
		// radius where the MEAN uptime hits f. These are different
		// functionals, but both must yield a radius at which the measured
		// uptime is at least f, and for f=1 they coincide with the maximum
		// critical radius exactly.
		viaProfile := est.Time[i]
		res, err := EvaluateFixedRange(context.Background(), net, cfg, viaProfile.Max)
		if err != nil {
			t.Fatal(err)
		}
		if res.ConnectedFraction < f {
			t.Fatalf("f=%v: uptime %v at profile max radius", f, res.ConnectedFraction)
		}
		if f == 1 {
			bisected := bisectRangeForUptime(t, net, cfg, 1)
			if math.Abs(bisected-viaProfile.Max)/viaProfile.Max > 1e-9 {
				t.Fatalf("f=1: bisection %v != profile max %v", bisected, viaProfile.Max)
			}
		}
	}
}

func TestProfileComponentTargetMatchesDirectEvaluation(t *testing.T) {
	// At the estimated r_l50 the measured average largest component (over
	// ALL snapshots) must reach 0.5n for each iteration's own radius.
	net := testNetwork(512, 20, quickWaypoint(512))
	cfg := RunConfig{Iterations: 1, Steps: 60, Seed: 41}
	est, err := EstimateRanges(context.Background(), net, cfg, RangeTargets{ComponentFractions: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	r := est.Component[0].PerIteration[0]

	// Recompute the average largest component at r directly.
	state, err := net.Model.NewState(seedForIteration(cfg, 0), net.Region, net.Nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for step := 0; step < cfg.Steps; step++ {
		if step > 0 {
			state.Step()
		}
		p := graph.NewProfile(state.Positions())
		sum += float64(p.LargestAt(r))
	}
	avg := sum / float64(cfg.Steps)
	if avg < 0.5*float64(net.Nodes)-1e-9 {
		t.Fatalf("average largest %v below target %v at estimated radius", avg, 0.5*float64(net.Nodes))
	}
	// Just below the estimated radius the target must not be met (minimality).
	sum = 0
	state, err = net.Model.NewState(seedForIteration(cfg, 0), net.Region, net.Nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	below := r * (1 - 1e-6)
	for step := 0; step < cfg.Steps; step++ {
		if step > 0 {
			state.Step()
		}
		p := graph.NewProfile(state.Positions())
		sum += float64(p.LargestAt(below))
	}
	if sum/float64(cfg.Steps) >= 0.5*float64(net.Nodes) {
		t.Fatalf("target already met just below the estimated radius %v", r)
	}
}
