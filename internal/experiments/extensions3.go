package experiments

import (
	"context"
	"fmt"

	"adhocnet/internal/core"
	"adhocnet/internal/dissemination"
	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/rangeassign"
	"adhocnet/internal/report"
	"adhocnet/internal/stats"
	"adhocnet/internal/xrand"
)

// extRangeAssignExperiment quantifies how much per-node range assignment
// (the problem of the paper's companion works [1,11]) saves over the optimal
// common range across the sweep sizes.
func extRangeAssignExperiment() Experiment {
	return Experiment{
		ID:    "ext-rangeassign",
		Title: "Extension: per-node range assignment vs common range",
		Description: "Total transmit power of the MST-based per-node range " +
			"assignment relative to the optimal common range, over random " +
			"placements of the sweep sizes, at path-loss exponents 2 and 4.",
		Run: func(p Preset) (*Result, error) {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			table := report.NewTable("MST range assignment vs common range",
				"l", "n", "mean savings a=2", "mean savings a=4", "min savings a=2")
			series := report.Series{Name: "savings a=2"}
			for _, l := range p.Sides {
				n := nodesForSide(l)
				reg, err := geom.NewRegion(l, 2)
				if err != nil {
					return nil, err
				}
				rng := xrand.New(p.seedFor(fmt.Sprintf("ext-rangeassign/%v", l)))
				var s2, s4 stats.Accumulator
				trials := p.StationarySamples / 4
				if trials < 20 {
					trials = 20
				}
				for trial := 0; trial < trials; trial++ {
					pts := reg.UniformPoints(rng, n)
					cmp2, err := rangeassign.Compare(pts, 2)
					if err != nil {
						return nil, err
					}
					cmp4, err := rangeassign.Compare(pts, 4)
					if err != nil {
						return nil, err
					}
					s2.Add(cmp2.Savings)
					s4.Add(cmp4.Savings)
				}
				table.AddFloatRow(l, float64(n), s2.Mean(), s4.Mean(), s2.Min())
				series.X = append(series.X, l)
				series.Y = append(series.Y, s2.Mean())
			}
			chart := &report.Chart{
				Title: "Per-node assignment power savings", XLabel: "l",
				YLabel: "savings vs common range (a=2)", LogX: true,
				Series: []report.Series{series},
			}
			return &Result{
				ID: "ext-rangeassign", Title: "Per-node range assignment vs common range",
				Tables: []*report.Table{table},
				Charts: []*report.Chart{chart},
				Notes: []string{
					"The paper's MTR is the uniform special case of the range",
					"assignment problem ([1,11]); this table shows how much the",
					"per-node MST assignment saves over the best common range —",
					"interior nodes shrink their radios to their local",
					"neighborhood while the bottleneck pair keeps the critical",
					"radius.",
				},
			}, nil
		},
	}
}

// extDataMuleExperiment measures epidemic dissemination at the paper's
// dependability operating points: even far below r_stationary, mobility
// eventually ferries a message across the network.
func extDataMuleExperiment() Experiment {
	return Experiment{
		ID:    "ext-datamule",
		Title: "Extension: store-and-forward dissemination at r90/r10/r0",
		Description: "Epidemic message propagation under the drunkard model at " +
			"the estimated r90, r10 and r0: delivery probability and time to " +
			"inform the whole network (l = 1024, n = 32).",
		Run: func(p Preset) (*Result, error) {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			const l = 1024.0
			n := nodesForSide(l)
			reg, err := geom.NewRegion(l, 2)
			if err != nil {
				return nil, err
			}
			model := mobility.PaperDrunkard(l)
			net := core.Network{Nodes: n, Region: reg, Model: model}
			cfg := p.config("ext-datamule/estimate")
			est, err := core.EstimateRanges(context.Background(), net, cfg,
				core.RangeTargets{TimeFractions: []float64{0.9, 0.1, 0}})
			if err != nil {
				return nil, err
			}
			title := fmt.Sprintf("Dissemination under mobility (l=%v, n=%d, drunkard)", l, n)
			table := report.NewTable(title,
				"range", "r", "delivered", "steps mean", "steps max", "informed at cutoff")
			maxSteps := p.Steps * 4
			for _, f := range []float64{0.9, 0.1, 0} {
				e, err := est.TimeFraction(f)
				if err != nil {
					return nil, err
				}
				runCfg := p.config(fmt.Sprintf("ext-datamule/run/%v", f))
				runCfg.Steps = 1
				res, err := dissemination.Run(net, runCfg, dissemination.Config{
					Radius:         e.Mean,
					TargetFraction: 1,
					MaxSteps:       maxSteps,
				})
				if err != nil {
					return nil, err
				}
				table.AddRow(
					fmt.Sprintf("r%d", int(f*100)),
					report.FormatFloat(e.Mean),
					report.FormatFloat(res.Delivered),
					report.FormatFloat(res.StepsMean),
					report.FormatFloat(res.StepsMax),
					report.FormatFloat(res.MeanInformedAtCutoff),
				)
			}
			return &Result{
				ID: "ext-datamule", Title: title,
				Tables: []*report.Table{table},
				Notes: []string{
					"The paper's third scenario made concrete: at r10 the network",
					"is connected only ~10% of the time and at r0 essentially",
					"never, yet store-and-forward over the drunkard motion still",
					"delivers to every node - temporary connection periods",
					"suffice for eventual dissemination at a fraction of the",
					"always-connected power budget.",
				},
			}, nil
		},
	}
}
