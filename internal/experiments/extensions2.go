package experiments

import (
	"context"
	"fmt"

	"adhocnet/internal/bidim"
	"adhocnet/internal/core"
	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/report"
	"adhocnet/internal/xrand"
)

// extStructureExperiment measures graph structure at the paper's operating
// ranges, making the Figures 4-5 claim ("disconnection is caused by a few
// isolated nodes") directly checkable and adding the dependability metrics
// (articulation points, biconnectivity) a DSN audience would ask about.
func extStructureExperiment() Experiment {
	return Experiment{
		ID:    "ext-structure",
		Title: "Extension: graph structure at r100/r90/r10",
		Description: "Average degree, isolated nodes, hop diameter, articulation " +
			"points and biconnectivity of the communication graph when " +
			"transmitting at the estimated r100, r90 and r10 (random waypoint, " +
			"largest sweep size).",
		Run: func(p Preset) (*Result, error) {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			single := p
			single.Sides = p.Sides[len(p.Sides)-1:]
			points, err := runSizeSweep(single, waypointForSide, "ext-structure", timeTargets())
			if err != nil {
				return nil, err
			}
			pt := points[0]
			reg, err := geom.NewRegion(pt.L, 2)
			if err != nil {
				return nil, err
			}
			net := core.Network{Nodes: pt.N, Region: reg, Model: waypointForSide(pt.L)}
			// Structure evaluation rebuilds explicit graphs and runs
			// all-pairs BFS per snapshot; keep the trajectory shorter.
			cfg := p.config("ext-structure/eval")
			cfg.Steps = min(p.Steps, 500)
			title := fmt.Sprintf("Graph structure at the operating ranges (l=%v, n=%d)", pt.L, pt.N)
			table := report.NewTable(title,
				"range", "r", "mean degree", "mean isolated", "isolated-only disc.",
				"mean diameter (hops)", "mean path (hops)", "articulation pts", "biconnected")
			for _, f := range []float64{1, 0.9, 0.1} {
				est, err := pt.Estimates.TimeFraction(f)
				if err != nil {
					return nil, err
				}
				res, err := core.EvaluateStructure(context.Background(), net, cfg, est.Mean)
				if err != nil {
					return nil, err
				}
				table.AddRow(
					fmt.Sprintf("r%d", int(f*100)),
					report.FormatFloat(res.Radius),
					report.FormatFloat(res.MeanDegree),
					report.FormatFloat(res.MeanIsolated),
					report.FormatFloat(res.IsolatedOnlyFraction),
					report.FormatFloat(res.MeanDiameter),
					report.FormatFloat(res.MeanHops),
					report.FormatFloat(res.MeanArticulation),
					report.FormatFloat(res.BiconnectedFraction),
				)
			}
			return &Result{
				ID: "ext-structure", Title: title,
				Tables: []*report.Table{table},
				Notes: []string{
					"Checks the paper's Figure 4-5 reading: at r90 nearly all",
					"disconnections should be isolated-only (a few lone nodes,",
					"largest component ~0.98n). The hop columns quantify the",
					"multi-hop structure; articulation/biconnectivity expose",
					"single points of failure at each dependability level.",
				},
			}, nil
		},
	}
}

// extTwoDimTheoryExperiment compares the simulated r_stationary against the
// Gupta-Kumar prediction (the paper's reference [4]) with the boundary-exact
// isolated-node correction.
func extTwoDimTheoryExperiment() Experiment {
	return Experiment{
		ID:    "ext-2dtheory",
		Title: "Extension: simulated r_stationary vs 2-D theory",
		Description: "r_stationary from simulation vs the Gupta-Kumar critical " +
			"radius and the boundary-exact isolated-node inversion, across the " +
			"sweep sizes.",
		Run: func(p Preset) (*Result, error) {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			table := report.NewTable("Simulated vs theoretical stationary range",
				"l", "n", "r_stationary (sim)", "Gupta-Kumar c=0", "isolated-node inv.", "sim/inv")
			simSeries := report.Series{Name: "simulated"}
			invSeries := report.Series{Name: "isolated-node inversion"}
			for _, l := range p.Sides {
				n := nodesForSide(l)
				reg, err := geom.NewRegion(l, 2)
				if err != nil {
					return nil, err
				}
				sim, err := core.RStationary(context.Background(), reg, n, p.StationarySamples,
					p.seedFor(fmt.Sprintf("ext-2dtheory/%v", l)), p.Workers, p.StationaryQuantile)
				if err != nil {
					return nil, err
				}
				gk := bidim.CriticalRadius(n, l, 0)
				inv, err := bidim.RadiusForConnectivity(n, l, p.StationaryQuantile)
				if err != nil {
					return nil, err
				}
				table.AddFloatRow(l, float64(n), sim, gk, inv, sim/inv)
				simSeries.X = append(simSeries.X, l)
				simSeries.Y = append(simSeries.Y, sim)
				invSeries.X = append(invSeries.X, l)
				invSeries.Y = append(invSeries.Y, inv)
			}
			chart := &report.Chart{
				Title: "r_stationary: simulation vs theory", XLabel: "l",
				YLabel: "range", LogX: true,
				Series: []report.Series{simSeries, invSeries},
			}
			return &Result{
				ID: "ext-2dtheory", Title: "Simulated vs theoretical stationary range",
				Tables: []*report.Table{table},
				Charts: []*report.Chart{chart},
				Notes: []string{
					"The boundary-exact isolated-node inversion should track the",
					"simulated r_stationary within ~10% (isolated nodes dominate",
					"the connectivity threshold in 2-D); the bare Gupta-Kumar c=0",
					"radius sits below both, since it ignores the square's border.",
				},
			}, nil
		},
	}
}

// extMobilityQuantityExperiment implements the paper's closing future-work
// item: make the "quantity of mobility" quantitative and show that r100
// correlates with it across different motion patterns.
func extMobilityQuantityExperiment() Experiment {
	return Experiment{
		ID:    "ext-quantity",
		Title: "Extension: quantity of mobility vs r100 (future work)",
		Description: "Measured moving fraction and mean speed for waypoint, " +
			"drunkard and random-direction configurations spanning mobility " +
			"levels, against the resulting r100/r_stationary (l=1024, n=32).",
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
			rs, err := core.RStationary(context.Background(), reg, n, p.StationarySamples,
				p.seedFor("ext-quantity/stationary"), p.Workers, p.StationaryQuantile)
			if err != nil {
				return nil, err
			}
			configs := []struct {
				name  string
				model mobility.Model
			}{
				{"waypoint p_s=0", mobility.PaperWaypoint(l)},
				{"waypoint p_s=0.5", withPStationary(mobility.PaperWaypoint(l), 0.5)},
				{"waypoint p_s=0.8", withPStationary(mobility.PaperWaypoint(l), 0.8)},
				{"drunkard p_pause=0.3", mobility.PaperDrunkard(l)},
				{"drunkard p_pause=0.9", mobility.Drunkard{PPause: 0.9, M: 0.01 * l}},
				{"direction p_s=0", directionForSide(l)},
				{"direction p_s=0.5", mobility.RandomDirection{
					VMin: 0.1, VMax: 0.01 * l, PauseSteps: 2000, PStationary: 0.5}},
			}
			table := report.NewTable("Quantity of mobility vs r100",
				"configuration", "moving fraction", "mean speed / l", "r100/rs")
			series := report.Series{Name: "r100/rs vs moving fraction"}
			for _, c := range configs {
				q, err := mobility.MeasureQuantity(c.model, reg, n, min(p.Steps, 2000),
					xrand.New(p.seedFor("ext-quantity/measure/"+c.name)))
				if err != nil {
					return nil, err
				}
				net := core.Network{Nodes: n, Region: reg, Model: c.model}
				cfg := p.config("ext-quantity/" + c.name)
				est, err := core.EstimateRanges(context.Background(), net, cfg, core.RangeTargets{TimeFractions: []float64{1}})
				if err != nil {
					return nil, err
				}
				ratio := est.Time[0].Mean / rs
				table.AddRow(
					c.name,
					report.FormatFloat(q.MovingFraction),
					report.FormatFloat(q.MeanSpeed),
					report.FormatFloat(ratio),
				)
				series.X = append(series.X, q.MovingFraction)
				series.Y = append(series.Y, ratio)
			}
			chart := &report.Chart{
				Title:  "r100/rs against measured moving fraction",
				XLabel: "moving fraction", YLabel: "r100/rs",
				Series: []report.Series{series},
			}
			return &Result{
				ID: "ext-quantity", Title: "Quantity of mobility vs r100",
				Tables: []*report.Table{table},
				Charts: []*report.Chart{chart},
				Notes: []string{
					"Paper (conclusions): connectivity 'is rather related to the",
					"quantity of mobility'. Expected: r100/rs increases with the",
					"measured moving fraction along one rough curve shared by all",
					"three motion patterns, supporting the conjecture the paper",
					"leaves as ongoing research.",
				},
			}, nil
		},
	}
}

func withPStationary(m mobility.RandomWaypoint, p float64) mobility.RandomWaypoint {
	m.PStationary = p
	return m
}
