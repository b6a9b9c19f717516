package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/stats"
)

func testNetwork(l float64, n int, m mobility.Model) Network {
	return Network{Nodes: n, Region: geom.MustRegion(l, 2), Model: m}
}

func quickWaypoint(l float64) mobility.RandomWaypoint {
	return mobility.RandomWaypoint{VMin: 0.1, VMax: 0.01 * l, PauseSteps: 20}
}

func TestNetworkValidate(t *testing.T) {
	good := testNetwork(100, 10, mobility.Stationary{})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
	bad := []Network{
		{Nodes: -1, Region: geom.MustRegion(10, 2), Model: mobility.Stationary{}},
		{Nodes: 5, Region: geom.Region{L: 0, Dim: 2}, Model: mobility.Stationary{}},
		{Nodes: 5, Region: geom.MustRegion(10, 2), Model: nil},
		{Nodes: 5, Region: geom.MustRegion(10, 2), Model: mobility.Drunkard{M: -1}},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad network %d accepted", i)
		}
	}
}

func TestRunConfigValidate(t *testing.T) {
	if err := (RunConfig{Iterations: 1, Steps: 1}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []RunConfig{
		{Iterations: 0, Steps: 1},
		{Iterations: 1, Steps: 0},
		{Iterations: 1, Steps: 1, Workers: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEstimateRangesDeterministicAcrossWorkers(t *testing.T) {
	net := testNetwork(256, 16, quickWaypoint(256))
	targets := PaperTargets()
	base := RunConfig{Iterations: 6, Steps: 40, Seed: 9, Workers: 1}
	par := base
	par.Workers = 4
	a, err := EstimateRanges(context.Background(), net, base, targets)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateRanges(context.Background(), net, par, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Time {
		for j := range a.Time[i].PerIteration {
			if a.Time[i].PerIteration[j] != b.Time[i].PerIteration[j] {
				t.Fatalf("time estimate %d iteration %d differs across worker counts", i, j)
			}
		}
	}
	for i := range a.Component {
		for j := range a.Component[i].PerIteration {
			if a.Component[i].PerIteration[j] != b.Component[i].PerIteration[j] {
				t.Fatalf("component estimate %d iteration %d differs across worker counts", i, j)
			}
		}
	}
}

func TestEstimateRangesOrdering(t *testing.T) {
	// r_100 >= r_90 >= r_10 >= r_0 within every iteration, and
	// r_l90 >= r_l75 >= r_l50.
	net := testNetwork(256, 16, quickWaypoint(256))
	cfg := RunConfig{Iterations: 5, Steps: 60, Seed: 3}
	est, err := EstimateRanges(context.Background(), net, cfg, PaperTargets())
	if err != nil {
		t.Fatal(err)
	}
	r100, _ := est.TimeFraction(1)
	r90, _ := est.TimeFraction(0.9)
	r10, _ := est.TimeFraction(0.1)
	r0, _ := est.TimeFraction(0)
	for i := 0; i < cfg.Iterations; i++ {
		a, b, c, d := r100.PerIteration[i], r90.PerIteration[i], r10.PerIteration[i], r0.PerIteration[i]
		if !(a >= b && b >= c && c >= d) {
			t.Fatalf("iteration %d: ordering violated: %v %v %v %v", i, a, b, c, d)
		}
		if d < 0 {
			t.Fatalf("iteration %d: negative radius %v", i, d)
		}
	}
	rl90, _ := est.ComponentFraction(0.9)
	rl75, _ := est.ComponentFraction(0.75)
	rl50, _ := est.ComponentFraction(0.5)
	for i := 0; i < cfg.Iterations; i++ {
		if !(rl90.PerIteration[i] >= rl75.PerIteration[i] && rl75.PerIteration[i] >= rl50.PerIteration[i]) {
			t.Fatalf("iteration %d: component ordering violated", i)
		}
	}
	// The full-connectivity radius dominates every component target.
	for i := 0; i < cfg.Iterations; i++ {
		if rl90.PerIteration[i] > r100.PerIteration[i] {
			t.Fatalf("iteration %d: rl90 %v exceeds r100 %v", i, rl90.PerIteration[i], r100.PerIteration[i])
		}
	}
}

func TestEstimateRangesValidation(t *testing.T) {
	net := testNetwork(100, 10, mobility.Stationary{})
	cfg := RunConfig{Iterations: 2, Steps: 2, Seed: 1}
	if _, err := EstimateRanges(context.Background(), net, cfg, RangeTargets{TimeFractions: []float64{1.5}}); err == nil {
		t.Error("time fraction > 1 accepted")
	}
	if _, err := EstimateRanges(context.Background(), net, cfg, RangeTargets{ComponentFractions: []float64{0}}); err == nil {
		t.Error("component fraction 0 accepted")
	}
	// NaN fails every comparison, so it must be rejected as a validation
	// error, not reach the quantile or bisection code.
	for name, targets := range map[string]RangeTargets{
		"NaN time fraction":      {TimeFractions: []float64{math.NaN()}},
		"NaN component fraction": {ComponentFractions: []float64{math.NaN()}},
	} {
		_, err := EstimateRanges(context.Background(), net, cfg, targets)
		var pe *PanicError
		if err == nil || errors.As(err, &pe) {
			t.Errorf("%s: got %v, want a validation error", name, err)
		}
	}
	one := testNetwork(100, 1, mobility.Stationary{})
	if _, err := EstimateRanges(context.Background(), one, cfg, PaperTargets()); err == nil {
		t.Error("single-node estimation accepted")
	}
	if _, err := EstimateRanges(context.Background(), net, RunConfig{}, PaperTargets()); err == nil {
		t.Error("zero-iteration config accepted")
	}
}

func TestEstimatesLookupErrors(t *testing.T) {
	var est RangeEstimates
	if _, err := est.TimeFraction(0.5); err == nil {
		t.Error("missing time fraction lookup should fail")
	}
	if _, err := est.ComponentFraction(0.5); err == nil {
		t.Error("missing component fraction lookup should fail")
	}
}

func TestStationaryStepsOneMatchesStationarySample(t *testing.T) {
	// With the stationary model, r_100 per iteration equals the placement's
	// critical radius; across many 1-step iterations its distribution must
	// match StationaryCriticalSample with the same seed.
	reg := geom.MustRegion(512, 2)
	const n, iters = 24, 40
	net := Network{Nodes: n, Region: reg, Model: mobility.Stationary{}}
	cfg := RunConfig{Iterations: iters, Steps: 1, Seed: 77}
	est, err := EstimateRanges(context.Background(), net, cfg, RangeTargets{TimeFractions: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	sample, err := StationaryCriticalSample(context.Background(), reg, n, iters, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same split scheme, same placement law: the multisets match.
	got := append([]float64(nil), est.Time[0].PerIteration...)
	sortFloats(got)
	for i := range sample {
		if got[i] != sample[i] {
			t.Fatalf("critical sample %d: %v vs %v", i, got[i], sample[i])
		}
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestFixedRangeMatchesDirect(t *testing.T) {
	// The profile-based evaluator and the direct per-step graph rebuild must
	// agree exactly on the same seed.
	net := testNetwork(256, 20, quickWaypoint(256))
	cfg := RunConfig{Iterations: 4, Steps: 50, Seed: 5}
	for _, r := range []float64{10, 40, 80, 160} {
		viaProfile, err := EvaluateFixedRange(context.Background(), net, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := DirectFixedRange(context.Background(), net, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		if viaProfile.ConnectedFraction != direct.ConnectedFraction {
			t.Fatalf("r=%v: connected fraction %v (profile) vs %v (direct)",
				r, viaProfile.ConnectedFraction, direct.ConnectedFraction)
		}
		if viaProfile.MinLargest != direct.MinLargest {
			t.Fatalf("r=%v: min largest %d vs %d", r, viaProfile.MinLargest, direct.MinLargest)
		}
		pd, dd := viaProfile.AvgLargestDisconnected, direct.AvgLargestDisconnected
		if !(math.IsNaN(pd) && math.IsNaN(dd)) && math.Abs(pd-dd) > 1e-9 {
			t.Fatalf("r=%v: avg largest disconnected %v vs %v", r, pd, dd)
		}
		for i := range viaProfile.PerIteration {
			a, b := viaProfile.PerIteration[i], direct.PerIteration[i]
			sameMean := a.Intervals.MeanLength == b.Intervals.MeanLength ||
				(math.IsNaN(a.Intervals.MeanLength) && math.IsNaN(b.Intervals.MeanLength))
			if a.ConnectedFraction != b.ConnectedFraction || a.MinLargest != b.MinLargest ||
				a.Intervals.Count != b.Intervals.Count ||
				a.Intervals.MaxLength != b.Intervals.MaxLength || !sameMean {
				t.Fatalf("r=%v iteration %d: %+v vs %+v", r, i, a, b)
			}
		}
	}
}

func TestFixedRangeMonotoneInRadius(t *testing.T) {
	net := testNetwork(256, 16, quickWaypoint(256))
	cfg := RunConfig{Iterations: 3, Steps: 60, Seed: 8}
	radii := []float64{5, 20, 50, 100, 200, 400}
	res, err := EvaluateFixedRanges(context.Background(), net, cfg, radii)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].ConnectedFraction < res[i-1].ConnectedFraction {
			t.Fatalf("connected fraction not monotone: %v after %v",
				res[i].ConnectedFraction, res[i-1].ConnectedFraction)
		}
		if res[i].MinLargest < res[i-1].MinLargest {
			t.Fatalf("min largest not monotone")
		}
	}
}

func TestFixedRangeExtremes(t *testing.T) {
	net := testNetwork(100, 12, quickWaypoint(100))
	cfg := RunConfig{Iterations: 2, Steps: 30, Seed: 4}
	// At the region diameter every graph is complete.
	res, err := EvaluateFixedRange(context.Background(), net, cfg, net.Region.Diameter())
	if err != nil {
		t.Fatal(err)
	}
	if res.ConnectedFraction != 1 {
		t.Fatalf("diameter radius: connected fraction %v, want 1", res.ConnectedFraction)
	}
	if !math.IsNaN(res.AvgLargestDisconnected) {
		t.Fatal("no disconnected snapshots: average should be NaN")
	}
	if res.MinLargest != net.Nodes {
		t.Fatalf("min largest = %d, want %d", res.MinLargest, net.Nodes)
	}
	// At radius 0 (nodes a.s. distinct) everything is isolated.
	res, err = EvaluateFixedRange(context.Background(), net, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConnectedFraction != 0 {
		t.Fatalf("zero radius: connected fraction %v, want 0", res.ConnectedFraction)
	}
	if res.MinLargest != 1 {
		t.Fatalf("zero radius: min largest %d, want 1", res.MinLargest)
	}
	if math.Abs(res.AvgLargestFraction-1/float64(net.Nodes)) > 1e-12 {
		t.Fatalf("zero radius: largest fraction %v", res.AvgLargestFraction)
	}
}

func TestFixedRangeAtEstimatedR100(t *testing.T) {
	// Evaluating at each iteration's own r_100 must give 100% connectivity
	// for that iteration; at the across-iteration max it holds for all.
	net := testNetwork(256, 16, quickWaypoint(256))
	cfg := RunConfig{Iterations: 4, Steps: 50, Seed: 11}
	est, err := EstimateRanges(context.Background(), net, cfg, RangeTargets{TimeFractions: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	r100 := est.Time[0]
	res, err := EvaluateFixedRange(context.Background(), net, cfg, r100.Max)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConnectedFraction != 1 {
		t.Fatalf("at max r_100: connected fraction %v, want 1", res.ConnectedFraction)
	}
}

func TestFixedRangeIntervalStats(t *testing.T) {
	net := testNetwork(256, 16, quickWaypoint(256))
	cfg := RunConfig{Iterations: 3, Steps: 80, Seed: 13}
	est, err := EstimateRanges(context.Background(), net, cfg, RangeTargets{TimeFractions: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateFixedRange(context.Background(), net, cfg, est.Time[0].Mean)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.PerIteration {
		discSteps := int(math.Round((1 - it.ConnectedFraction) * float64(cfg.Steps)))
		if discSteps == 0 {
			if it.Intervals.Count != 0 {
				t.Fatalf("iteration %d: intervals without disconnected steps", i)
			}
			continue
		}
		if it.Intervals.Count <= 0 {
			t.Fatalf("iteration %d: disconnected steps but no intervals", i)
		}
		if it.Intervals.MaxLength > discSteps {
			t.Fatalf("iteration %d: max interval %d exceeds disconnected steps %d",
				i, it.Intervals.MaxLength, discSteps)
		}
		wantMean := float64(discSteps) / float64(it.Intervals.Count)
		if math.Abs(it.Intervals.MeanLength-wantMean) > 1e-9 {
			t.Fatalf("iteration %d: mean interval %v, want %v", i, it.Intervals.MeanLength, wantMean)
		}
	}
}

func TestEvaluateFixedRangesValidation(t *testing.T) {
	net := testNetwork(100, 10, mobility.Stationary{})
	cfg := RunConfig{Iterations: 1, Steps: 1, Seed: 1}
	if _, err := EvaluateFixedRanges(context.Background(), net, cfg, nil); err == nil {
		t.Error("empty radii accepted")
	}
	if _, err := EvaluateFixedRanges(context.Background(), net, cfg, []float64{-1}); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := EvaluateFixedRanges(context.Background(), net, cfg, []float64{math.NaN()}); err == nil {
		t.Error("NaN radius accepted")
	}
	if _, err := DirectFixedRange(context.Background(), net, cfg, -1); err == nil {
		t.Error("direct negative radius accepted")
	}
}

func TestStationarySampleSortedAndPositive(t *testing.T) {
	reg := geom.MustRegion(1000, 2)
	sample, err := StationaryCriticalSample(context.Background(), reg, 32, 60, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 60 {
		t.Fatalf("sample size %d", len(sample))
	}
	for i, v := range sample {
		if v <= 0 || v > reg.Diameter() {
			t.Fatalf("critical radius %d = %v outside (0, diameter]", i, v)
		}
		if i > 0 && v < sample[i-1] {
			t.Fatal("sample not sorted")
		}
	}
}

func TestStationarySampleValidation(t *testing.T) {
	reg := geom.MustRegion(100, 2)
	if _, err := StationaryCriticalSample(context.Background(), reg, 1, 10, 1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := StationaryCriticalSample(context.Background(), reg, 10, 0, 1, 0); err == nil {
		t.Error("samples=0 accepted")
	}
	if _, err := StationaryCriticalSample(context.Background(), geom.Region{L: -1, Dim: 2}, 10, 5, 1, 0); err == nil {
		t.Error("bad region accepted")
	}
}

func TestRStationaryQuantileSemantics(t *testing.T) {
	reg := geom.MustRegion(1000, 2)
	const n, samples = 32, 200
	r99, err := RStationary(context.Background(), reg, n, samples, 7, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	r50, err := RStationary(context.Background(), reg, n, samples, 7, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r99 <= r50 {
		t.Fatalf("r(0.99)=%v should exceed r(0.5)=%v", r99, r50)
	}
	// The fraction of placements connected at r99 should be ~0.99.
	sample, err := StationaryCriticalSample(context.Background(), reg, n, samples, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	frac := stats.ECDF(sample, r99)
	if frac < 0.97 {
		t.Fatalf("connectivity fraction at r99 = %v", frac)
	}
	if _, err := RStationary(context.Background(), reg, n, samples, 7, 0, 0); err == nil {
		t.Error("quantile 0 accepted")
	}
	if _, err := RStationary(context.Background(), reg, n, samples, 7, 0, 1.2); err == nil {
		t.Error("quantile > 1 accepted")
	}
}

func TestRadioEnergy(t *testing.T) {
	e := RadioEnergy{Alpha: 2}
	if got := e.PowerRatio(5, 10); got != 0.25 {
		t.Fatalf("PowerRatio = %v, want 0.25", got)
	}
	if got := e.SavingsFraction(6, 10); math.Abs(got-0.64) > 1e-12 {
		t.Fatalf("SavingsFraction = %v, want 0.64", got)
	}
	if !math.IsNaN(e.PowerRatio(1, 0)) {
		t.Fatal("zero base should give NaN")
	}
	// Quadruple-power law.
	e4 := RadioEnergy{Alpha: 4}
	if got := e4.PowerRatio(5, 10); got != 0.0625 {
		t.Fatalf("alpha=4 PowerRatio = %v", got)
	}
}

func TestPaperTargetsShape(t *testing.T) {
	targets := PaperTargets()
	if err := targets.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(targets.TimeFractions) != 4 || len(targets.ComponentFractions) != 3 {
		t.Fatalf("unexpected paper targets: %+v", targets)
	}
}

func BenchmarkEstimateRanges16Nodes(b *testing.B) {
	net := testNetwork(256, 16, quickWaypoint(256))
	cfg := RunConfig{Iterations: 2, Steps: 100, Seed: 1, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateRanges(context.Background(), net, cfg, PaperTargets()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixedRangeProfile(b *testing.B) {
	net := testNetwork(4096, 64, quickWaypoint(4096))
	cfg := RunConfig{Iterations: 1, Steps: 100, Seed: 1, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateFixedRange(context.Background(), net, cfg, 300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixedRangeDirect(b *testing.B) {
	net := testNetwork(4096, 64, quickWaypoint(4096))
	cfg := RunConfig{Iterations: 1, Steps: 100, Seed: 1, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DirectFixedRange(context.Background(), net, cfg, 300); err != nil {
			b.Fatal(err)
		}
	}
}
