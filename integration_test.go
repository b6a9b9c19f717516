package adhocnet_test

// Cross-module integration tests: each exercises a pipeline spanning several
// packages end to end (theory -> simulation agreement; experiment -> report
// rendering).

import (
	"context"
	"math"
	"strings"
	"testing"

	"adhocnet/internal/bidim"
	"adhocnet/internal/core"
	"adhocnet/internal/experiments"
	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
	"adhocnet/internal/stats"
	"adhocnet/internal/unidim"
	"adhocnet/internal/xrand"
)

// TestOneDimTheoryMatchesSimulatorEndToEnd drives the full simulator (not
// the unidim Monte Carlo) on a 1-D network and compares the connectivity
// fraction at several radii with the exact spacings law.
func TestOneDimTheoryMatchesSimulatorEndToEnd(t *testing.T) {
	reg := geom.MustRegion(1000, 1)
	const n, samples = 48, 4000
	criticals, err := core.StationaryCriticalSample(context.Background(), reg, n, samples, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ratio := range []float64{0.05, 0.08, 0.12, 0.2} {
		want := unidim.ConnectivityProbability(n, ratio)
		got := stats.ECDF(criticals, ratio*reg.L)
		sigma := math.Sqrt(want*(1-want)/samples) + 1e-9
		if math.Abs(got-want) > 5*sigma+0.01 {
			t.Fatalf("ratio %v: simulator %v vs exact law %v", ratio, got, want)
		}
	}
}

// TestTwoDimTheoryMatchesSimulatorEndToEnd does the same in 2-D against the
// boundary-exact isolated-node approximation near the connectivity knee.
func TestTwoDimTheoryMatchesSimulatorEndToEnd(t *testing.T) {
	reg := geom.MustRegion(1024, 2)
	const n = 32
	criticals, err := core.StationaryCriticalSample(context.Background(), reg, n, 3000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.QuantileSorted(criticals, 0.9)
	approx := bidim.ConnectivityProbabilityPoisson(n, reg.L, r)
	if math.Abs(approx-0.9) > 0.13 {
		t.Fatalf("2-D theory %v vs empirical 0.9 at r=%v", approx, r)
	}
}

// TestLemmaOneHoldsInsideFullSimulator checks Lemma 1 against the simulator:
// whenever the 1-D cell bit string contains {10*1}, the profile must report
// the graph disconnected at that range.
func TestLemmaOneHoldsInsideFullSimulator(t *testing.T) {
	rng := xrand.New(99)
	reg := geom.MustRegion(800, 1)
	const n = 24
	const r = 40.0
	c := int(reg.L / r) // cells of width exactly r
	for trial := 0; trial < 400; trial++ {
		pts := reg.UniformPoints(rng, n)
		xs := make([]float64, n)
		for i, p := range pts {
			xs[i] = p.X
		}
		prof := graph.NewProfile1D(xs)
		if unidim.HasGapPattern(unidim.CellBitString(xs, reg.L, c)) && prof.ConnectedAt(r) {
			t.Fatalf("trial %d: gap pattern present but graph connected at r=%v", trial, r)
		}
	}
}

// TestExperimentPipelineRendersEndToEnd runs one real experiment on a small
// preset and pushes its output through every renderer.
func TestExperimentPipelineRendersEndToEnd(t *testing.T) {
	e, err := experiments.ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	p := experiments.Preset{
		Name: "integration", Iterations: 2, Steps: 50,
		StationarySamples: 80, Sides: []float64{256},
		StationaryQuantile: 0.99, Seed: 3,
	}
	res, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	md := res.Tables[0].Markdown()
	csv := res.Tables[0].CSV()
	chart := res.Charts[0].ASCII(60, 10)
	if !strings.Contains(md, "r100/rs") || !strings.Contains(csv, "r100/rs") {
		t.Fatal("renders missing ratio column")
	}
	if !strings.Contains(chart, "r100") {
		t.Fatal("chart missing legend")
	}
}

// TestSeedIsolationAcrossSubsystems makes sure independent subsystems given
// the same master seed do not produce correlated streams (a regression guard
// on the Split-based seed derivation).
func TestSeedIsolationAcrossSubsystems(t *testing.T) {
	reg := geom.MustRegion(256, 2)
	net := core.Network{Nodes: 12, Region: reg, Model: mobility.PaperWaypoint(reg.L)}
	cfg := core.RunConfig{Iterations: 4, Steps: 30, Seed: 123}
	a, err := core.EstimateRanges(context.Background(), net, cfg, core.RangeTargets{TimeFractions: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 124
	b, err := core.EstimateRanges(context.Background(), net, cfg, core.RangeTargets{TimeFractions: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Time[0].PerIteration {
		if a.Time[0].PerIteration[i] == b.Time[0].PerIteration[i] {
			same++
		}
	}
	if same == len(a.Time[0].PerIteration) {
		t.Fatal("adjacent seeds produced identical iterations")
	}
}
