package experiments

import (
	"context"
	"fmt"

	"adhocnet/internal/core"
	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/obs"
	"adhocnet/internal/report"
)

// extSweepExperiment is the large-n scaling sweep the two-level scheduler
// unlocks: the paper-faithful "few iterations, many steps" regime at node
// counts far past the paper's n = 128. For every region side it runs the
// range estimation at Iterations in {1, 2, 4} (capped by the preset) and
// reports the estimates together with the wall clock and the scheduler's
// outer x inner worker split — at Iterations = 1 the whole Workers budget
// lands on the snapshot pool, which used to idle on one core. The
// Iterations = 1 rung runs twice, kinetic on and off: identical estimates
// (the bit-identity contract), different seconds columns (the kinetic
// pipeline's per-step speedup).
func extSweepExperiment() Experiment {
	return Experiment{
		ID:    "ext-sweep",
		Title: "Extension: large-n sweep under the two-level scheduler",
		Description: "Range estimation across the preset sides at Iterations " +
			"in {1, 2, 4} under the random waypoint model, reporting r_100 " +
			"and r_90 alongside wall-clock time and the scheduler's " +
			"outer x inner worker split; the Iterations = 1 rung runs with " +
			"the kinetic pipeline on and off to show the per-step speedup " +
			"(run with -preset sweep for node counts up to 16384).",
		Run: func(p Preset) (*Result, error) {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			iterCounts := []int{1, 2, 4}
			table := report.NewTable("Two-level scheduler sweep (waypoint)",
				"l", "n", "iters", "split", "kinetic", "r100 mean", "r90 mean", "seconds")
			series := report.Series{Name: "r90, iters=1"}
			for _, l := range p.Sides {
				n := nodesForSide(l)
				reg, err := geom.NewRegion(l, 2)
				if err != nil {
					return nil, err
				}
				net := core.Network{Nodes: n, Region: reg, Model: mobility.PaperWaypoint(l)}
				for _, iters := range iterCounts {
					if iters > p.Iterations {
						continue
					}
					// The single-iteration rung is the long-trajectory
					// regime the kinetic path targets, so it doubles as the
					// kinetic-vs-rebuild comparison row.
					modes := []core.KineticMode{p.Kinetic}
					if iters == 1 {
						modes = []core.KineticMode{core.KineticOn, core.KineticOff}
					}
					for _, mode := range modes {
						cfg := p.config(fmt.Sprintf("ext-sweep/%v/%d", l, iters))
						cfg.Iterations = iters
						cfg.Kinetic = mode
						start := obs.Clock.Now() // the timing column is explicitly non-reproducible wall-clock output
						est, err := core.EstimateRanges(context.Background(), net, cfg,
							core.RangeTargets{TimeFractions: []float64{1, 0.9}})
						if err != nil {
							return nil, err
						}
						elapsed := obs.Clock.Since(start)
						r100, err := est.TimeFraction(1)
						if err != nil {
							return nil, err
						}
						r90, err := est.TimeFraction(0.9)
						if err != nil {
							return nil, err
						}
						table.AddRow(
							report.FormatFloat(l),
							fmt.Sprintf("%d", n),
							fmt.Sprintf("%d", iters),
							cfg.FormatLevels(),
							mode.String(),
							report.FormatFloat(r100.Mean),
							report.FormatFloat(r90.Mean),
							fmt.Sprintf("%.2f", elapsed.Seconds()),
						)
						if iters == 1 && mode == core.KineticOn {
							series.X = append(series.X, l)
							series.Y = append(series.Y, r90.Mean)
						}
					}
				}
			}
			chart := &report.Chart{
				Title: "r90 across the sweep (Iterations = 1)", XLabel: "l",
				YLabel: "r90", LogX: true,
				Series: []report.Series{series},
			}
			return &Result{
				ID: "ext-sweep", Title: "Large-n sweep under the two-level scheduler",
				Tables: []*report.Table{table},
				Charts: []*report.Chart{chart},
				Notes: []string{
					"Iterations < Workers is the regime where per-iteration",
					"parallelism leaves cores idle; the scheduler's snapshot pool",
					"(outer x inner split above) keeps them busy, and the",
					"estimates are bit-identical for every worker count by the",
					"ordered-reduction contract (core/scheduler.go).",
					"The Iterations = 1 rung runs kinetic on and off: the range",
					"columns must match exactly (graph/kinetic.go bit-identity),",
					"only the seconds column may differ.",
				},
			}, nil
		},
	}
}
