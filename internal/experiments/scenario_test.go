package experiments

import (
	"context"
	"fmt"
	"io/fs"
	"reflect"
	"testing"

	"adhocnet"
	"adhocnet/internal/core"
	"adhocnet/internal/geom"
	"adhocnet/internal/report"
	"adhocnet/internal/scenario"
)

// loadEmbeddedScenario builds one file of the embedded library.
func loadEmbeddedScenario(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	data, err := fs.ReadFile(adhocnet.Scenarios, "scenarios/"+name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Default().Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestScenarioReExpressionMatchesPresetPath is the acceptance gate of the
// scenario engine: the checked-in paper re-expressions must reproduce the
// hard-coded preset code path bit-for-bit. For each file it (a) asserts the
// built Network/RunConfig equals what runSizeSweep constructs for the quick
// preset — including the derived per-experiment seed baked into the file —
// and (b) runs the estimator through both and compares every float exactly.
func TestScenarioReExpressionMatchesPresetPath(t *testing.T) {
	p := Quick()
	cases := []struct {
		file  string
		label string
		l     float64
		model modelForSide
	}{
		{"paper-fig2-waypoint-l256.json", "fig2", 256, waypointForSide},
		{"paper-fig2-waypoint-l1024.json", "fig2", 1024, waypointForSide},
		{"paper-fig3-drunkard-l256.json", "fig3", 256, drunkardForSide},
	}
	for _, c := range cases {
		sc := loadEmbeddedScenario(t, c.file)

		reg, err := geom.NewRegion(c.l, 2)
		if err != nil {
			t.Fatal(err)
		}
		wantNet := core.Network{Nodes: nodesForSide(c.l), Region: reg, Model: c.model(c.l)}
		wantCfg := p.config(fmt.Sprintf("%s/l=%v", c.label, c.l))
		if sc.Network != wantNet {
			t.Fatalf("%s: network %+v does not re-express the preset path's %+v", c.file, sc.Network, wantNet)
		}
		if sc.Config != wantCfg {
			t.Fatalf("%s: run config %+v does not re-express the preset path's %+v"+
				" (regenerate the baked seed if seedFor changed)", c.file, sc.Config, wantCfg)
		}
		if !reflect.DeepEqual(sc.Targets, core.PaperTargets()) {
			t.Fatalf("%s: targets %+v are not the paper targets", c.file, sc.Targets)
		}

		presetEst, err := core.EstimateRanges(context.Background(), wantNet, wantCfg, core.PaperTargets())
		if err != nil {
			t.Fatal(err)
		}
		scEst, err := core.EstimateRanges(context.Background(), sc.Network, sc.Config, sc.Targets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(presetEst, scEst) {
			t.Fatalf("%s: scenario-built estimates diverge from the preset path:\n%+v\nvs\n%+v",
				c.file, scEst, presetEst)
		}
	}
}

// TestScenarioReproducesFig2ReportRow re-runs the fig2 experiment at l=256
// and rebuilds its report row from the scenario-built run: the formatted
// cells must be bit-identical.
func TestScenarioReproducesFig2ReportRow(t *testing.T) {
	p := Quick()
	p.Sides = []float64{256} // one operating point keeps the test CI-sized
	e, err := ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 || len(res.Tables[0].Rows) != 1 {
		t.Fatalf("fig2 did not produce exactly one row: %+v", res.Tables)
	}
	got := res.Tables[0].Rows[0]

	sc := loadEmbeddedScenario(t, "paper-fig2-waypoint-l256.json")
	rs, err := core.RStationary(context.Background(), sc.Network.Region, sc.Network.Nodes, p.StationarySamples,
		p.seedFor("fig2/stationary"), p.Workers, p.StationaryQuantile)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateRanges(context.Background(), sc.Network, sc.Config, sc.Targets)
	if err != nil {
		t.Fatal(err)
	}
	timeMean := func(f float64) float64 {
		e, err := est.TimeFraction(f)
		if err != nil {
			t.Fatal(err)
		}
		return e.Mean
	}
	r100, err := est.TimeFraction(1)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := est.TimeFraction(0)
	if err != nil {
		t.Fatal(err)
	}
	// The cells of ratioFigure's row, rebuilt from the scenario run.
	want := []float64{
		256, float64(sc.Network.Nodes), rs,
		timeMean(1) / rs, timeMean(0.9) / rs, timeMean(0.1) / rs, timeMean(0) / rs,
		r100.Max / rs, r0.Min / rs,
	}
	for i, v := range want {
		if cell := report.FormatFloat(v); got[i] != cell {
			t.Fatalf("fig2 row cell %d: preset path %q, scenario path %q (row %v)", i, got[i], cell, got)
		}
	}
}
