package experiments

import (
	"context"
	"fmt"

	"adhocnet/internal/core"
	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/report"
	"adhocnet/internal/stats"
)

// directionForSide builds the random-direction extension model scaled like
// the paper's waypoint configuration.
func directionForSide(l float64) mobility.Model {
	return mobility.RandomDirection{VMin: 0.1, VMax: 0.01 * l, PauseSteps: 2000}
}

// extDirectionExperiment reruns the Figure 2 sweep under a third mobility
// pattern (random direction) to probe the paper's claim that connectivity
// depends on the quantity of mobility, not the motion pattern.
func extDirectionExperiment() Experiment {
	return Experiment{
		ID:    "ext-direction",
		Title: "Extension: r_x/r_stationary vs l, random direction",
		Description: "The Figure 2 sweep under a random-direction model " +
			"(not in the paper): if the paper's 'only the quantity of mobility " +
			"matters' claim generalizes, the ratios should resemble Figures 2-3.",
		Run: func(p Preset) (*Result, error) {
			points, err := runSizeSweep(p, directionForSide, "ext-direction", timeTargets())
			if err != nil {
				return nil, err
			}
			return ratioFigure("ext-direction", "Extension (random direction)", points, []string{
				"Measured finding: random-direction ratios come out clearly HIGHER",
				"than Figures 2-3. The model pauses at walls, so its stationary",
				"spatial distribution concentrates nodes near the border - harder",
				"configurations than the near-uniform waypoint/drunkard steady",
				"states. The paper's 'quantity of mobility' reading holds between",
				"models with similar spatial distributions; a pattern that changes",
				"the distribution itself changes connectivity too.",
			}), nil
		},
	}
}

// extEnergyExperiment turns the paper's energy argument into numbers: the
// transmit-power savings of the relaxed connectivity targets under path-loss
// exponents 2 and 4.
func extEnergyExperiment() Experiment {
	return Experiment{
		ID:    "ext-energy",
		Title: "Extension: transmit-power savings of relaxed connectivity",
		Description: "Power ratios (r_x/r_100)^alpha for the Figure 2 sweep's " +
			"largest system, quantifying the energy/dependability trade-off the " +
			"paper argues qualitatively.",
		Run: func(p Preset) (*Result, error) {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			// Largest side only: the paper's trade-off discussion centers on
			// large systems.
			single := p
			single.Sides = p.Sides[len(p.Sides)-1:]
			points, err := runSizeSweep(single, waypointForSide, "ext-energy", core.PaperTargets())
			if err != nil {
				return nil, err
			}
			pt := points[0]
			r100, err := pt.Estimates.TimeFraction(1)
			if err != nil {
				return nil, err
			}
			type target struct {
				name string
				mean float64
			}
			targets := []target{}
			for _, f := range []float64{0.9, 0.1} {
				est, err := pt.Estimates.TimeFraction(f)
				if err != nil {
					return nil, err
				}
				targets = append(targets, target{fmt.Sprintf("r%d", int(f*100)), est.Mean})
			}
			for _, g := range []float64{0.9, 0.5} {
				est, err := pt.Estimates.ComponentFraction(g)
				if err != nil {
					return nil, err
				}
				targets = append(targets, target{fmt.Sprintf("rl%d", int(g*100)), est.Mean})
			}
			title := fmt.Sprintf("Energy savings vs always-connected (l=%v, n=%d)", pt.L, pt.N)
			table := report.NewTable(title,
				"target", "r/r100", "power ratio a=2", "savings a=2", "power ratio a=4", "savings a=4")
			e2 := core.RadioEnergy{Alpha: 2}
			e4 := core.RadioEnergy{Alpha: 4}
			for _, tg := range targets {
				table.AddRow(
					tg.name,
					report.FormatFloat(tg.mean/r100.Mean),
					report.FormatFloat(e2.PowerRatio(tg.mean, r100.Mean)),
					report.FormatFloat(e2.SavingsFraction(tg.mean, r100.Mean)),
					report.FormatFloat(e4.PowerRatio(tg.mean, r100.Mean)),
					report.FormatFloat(e4.SavingsFraction(tg.mean, r100.Mean)),
				)
			}
			return &Result{
				ID: "ext-energy", Title: title,
				Tables: []*report.Table{table},
				Notes: []string{
					"Paper (qualitative): 'quite large reductions in transmitting",
					"range can be achieved if brief periods of disconnection are",
					"allowed'; with power ~ r^2 a ~35% range cut already halves",
					"transmit power, and ~ r^4 makes the saving dramatic.",
				},
			}, nil
		},
	}
}

// extQuantileExperiment probes the sensitivity of the reported ratios to the
// operational definition of r_stationary (the paper inherits its value from
// [1,11]; we regenerate it as a quantile of the stationary critical-radius
// distribution).
func extQuantileExperiment() Experiment {
	return Experiment{
		ID:    "ext-quantile",
		Title: "Extension: sensitivity to the r_stationary definition",
		Description: "r_stationary at quantiles 0.90/0.95/0.99 of the stationary " +
			"critical-radius distribution, and the resulting r100/r_stationary, " +
			"for the largest sweep size.",
		Run: func(p Preset) (*Result, error) {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			l := p.Sides[len(p.Sides)-1]
			n := nodesForSide(l)
			reg, err := geom.NewRegion(l, 2)
			if err != nil {
				return nil, err
			}
			net := core.Network{Nodes: n, Region: reg, Model: waypointForSide(l)}
			cfg := p.config("ext-quantile/mobile")
			est, err := core.EstimateRanges(context.Background(), net, cfg, core.RangeTargets{TimeFractions: []float64{1}})
			if err != nil {
				return nil, err
			}
			r100 := est.Time[0].Mean
			title := fmt.Sprintf("r_stationary quantile sensitivity (l=%v, n=%d)", l, n)
			table := report.NewTable(title, "quantile", "r_stationary", "r100/r_stationary")
			sample, err := core.StationaryCriticalSample(context.Background(), reg, n, p.StationarySamples,
				p.seedFor("ext-quantile/stationary"), p.Workers)
			if err != nil {
				return nil, err
			}
			for _, q := range []float64{0.90, 0.95, 0.99} {
				rs := stats.QuantileSorted(sample, q)
				table.AddFloatRow(q, rs, r100/rs)
			}
			return &Result{
				ID: "ext-quantile", Title: title,
				Tables: []*report.Table{table},
				Notes: []string{
					"The figures report ratios to r_stationary; this table bounds",
					"how much the choice of quantile (our operationalization of the",
					"paper's 'range ensuring connected graphs in the stationary",
					"case') moves those ratios.",
				},
			}, nil
		},
	}
}
