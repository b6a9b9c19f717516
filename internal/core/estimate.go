package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/stats"
)

// RangeTargets selects which transmitting-range statistics EstimateRanges
// computes.
type RangeTargets struct {
	// TimeFractions are connectivity-time targets: fraction f yields the
	// minimal range keeping the network connected during fraction f of the
	// snapshots (the paper's r_100, r_90, r_10 for f = 1, 0.9, 0.1). The
	// special value 0 yields r_0, the largest range at which no snapshot is
	// connected.
	TimeFractions []float64
	// ComponentFractions are largest-component-size targets: fraction g
	// yields the minimal range at which the average size of the largest
	// connected component reaches g*n (the paper's r_l90, r_l75, r_l50 for
	// g = 0.9, 0.75, 0.5).
	ComponentFractions []float64
}

// PaperTargets returns the targets reported in the paper's evaluation:
// r_100, r_90, r_10, r_0 and r_l90, r_l75, r_l50.
func PaperTargets() RangeTargets {
	return RangeTargets{
		TimeFractions:      []float64{1, 0.9, 0.1, 0},
		ComponentFractions: []float64{0.9, 0.75, 0.5},
	}
}

// RowWidth returns the checkpoint-row width of an EstimateRanges run with
// these targets (one value per requested statistic), for building checkpoint
// metadata up front.
func (t RangeTargets) RowWidth() int {
	return len(t.TimeFractions) + len(t.ComponentFractions)
}

// Validate checks the targets.
func (t RangeTargets) Validate() error {
	// Written as negated in-range tests so that NaN, which fails every
	// comparison, is rejected too.
	for _, f := range t.TimeFractions {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("core: time fraction %v outside [0,1]", f)
		}
	}
	for _, g := range t.ComponentFractions {
		if !(g > 0 && g <= 1) {
			return fmt.Errorf("core: component fraction %v outside (0,1]", g)
		}
	}
	return nil
}

// Estimate is the Monte-Carlo estimate of one transmitting-range statistic:
// one value per iteration plus summary moments across iterations.
type Estimate struct {
	// Target is the fraction this estimate corresponds to.
	Target float64
	// PerIteration holds the per-iteration range values (index = iteration).
	PerIteration []float64
	// Mean, Std, Min, Max summarize PerIteration.
	Mean, Std, Min, Max float64
}

func summarize(target float64, values []float64) Estimate {
	var acc stats.Accumulator
	for _, v := range values {
		acc.Add(v)
	}
	return Estimate{
		Target:       target,
		PerIteration: values,
		Mean:         acc.Mean(),
		Std:          acc.StdDev(),
		Min:          acc.Min(),
		Max:          acc.Max(),
	}
}

// RangeEstimates aggregates the range statistics of one simulated network.
type RangeEstimates struct {
	// Time[i] corresponds to RangeTargets.TimeFractions[i].
	Time []Estimate
	// Component[i] corresponds to RangeTargets.ComponentFractions[i].
	Component []Estimate
}

// TimeFraction returns the estimate for the given connectivity-time target,
// or an error when it was not requested.
func (e RangeEstimates) TimeFraction(f float64) (Estimate, error) {
	for _, est := range e.Time {
		if est.Target == f {
			return est, nil
		}
	}
	return Estimate{}, fmt.Errorf("core: no time-fraction estimate for target %v", f)
}

// ComponentFraction returns the estimate for the given component-size
// target, or an error when it was not requested.
func (e RangeEstimates) ComponentFraction(g float64) (Estimate, error) {
	for _, est := range e.Component {
		if est.Target == g {
			return est, nil
		}
	}
	return Estimate{}, fmt.Errorf("core: no component-fraction estimate for target %v", g)
}

// EstimateRanges simulates the network and estimates every requested
// transmitting-range statistic. For each iteration it computes the critical
// radius of every snapshot; the time-fraction ranges are quantiles of that
// per-iteration sample (f = 1 is the maximum: the range keeping every
// snapshot connected), and the component-fraction ranges invert the
// time-averaged largest-component curve by bisection. Per-iteration values
// are then summarized across iterations exactly as the paper averages its 50
// simulations.
//
// The targets pick the snapshot path. Time fractions alone need only each
// snapshot's critical radius (graph.Workspace.CriticalKinetic: the largest
// MST edge, no profile built); component fractions build every snapshot's
// connectivity profile and keep only its largest-component curve (the merge
// events at which the largest component grows, graph.LargestCurve) for the
// iteration's bisection. The time estimates are bit-identical either way,
// so callers should request only the targets they read.
//
// The run honors ctx (a canceled run returns ErrCanceled within about one
// snapshot's evaluation time) and supports checkpoint/resume through
// cfg.Sink; an iteration's checkpoint row is its per-target range values,
// time fractions first.
func EstimateRanges(ctx context.Context, net Network, cfg RunConfig, targets RangeTargets) (RangeEstimates, error) {
	if err := net.Validate(); err != nil {
		return RangeEstimates{}, err
	}
	if err := targets.Validate(); err != nil {
		return RangeEstimates{}, err
	}
	if net.Nodes < 2 {
		return RangeEstimates{}, fmt.Errorf("core: range estimation needs at least 2 nodes, got %d", net.Nodes)
	}

	width := targets.RowWidth()
	rows, err := runIterations(ctx, cfg, floatsCodec(width), func(ctx context.Context, it iteration) ([]float64, error) {
		// The component-fraction inversion below needs every snapshot's
		// largest-component curve at once, so with component targets each
		// evaluation appends its transient profile's growth events into the
		// slot's reused buffer and the ordered merge keeps an exactly-sized
		// copy; time targets need only the critical radius, which
		// CriticalKinetic computes without building a profile at all.
		keep := len(targets.ComponentFractions) > 0
		var curves []graph.LargestCurve
		if keep {
			curves = make([]graph.LargestCurve, 0, cfg.Steps)
		}
		criticals := make([]float64, 0, cfg.Steps)
		err := runTrajectory(ctx, it, net,
			func() *estimateSnap { return &estimateSnap{} },
			func(_ int, pts []geom.Point, moved []int32, ws *graph.Workspace, out *estimateSnap) {
				if !keep {
					out.critical = ws.CriticalKinetic(pts, net.Region.Dim, moved)
					return
				}
				p := ws.ProfileKinetic(pts, net.Region.Dim, moved)
				out.critical = p.Critical()
				out.curve = p.AppendLargestCurve(out.curve[:0])
			},
			func(_ int, out *estimateSnap) {
				if keep {
					curves = append(curves, slices.Clone(out.curve))
				}
				criticals = append(criticals, out.critical)
			})
		if err != nil {
			return nil, err
		}
		sort.Float64s(criticals)
		row := make([]float64, 0, width)
		for _, f := range targets.TimeFractions {
			row = append(row, quantileForTimeFraction(criticals, f))
		}
		for _, g := range targets.ComponentFractions {
			row = append(row, radiusForAverageLargest(curves, net.Nodes, g))
		}
		return row, nil
	})
	if err != nil {
		return RangeEstimates{}, err
	}

	// column j of rows is one statistic's per-iteration values.
	column := func(j int) []float64 {
		vals := make([]float64, len(rows))
		for i, row := range rows {
			vals[i] = row[j]
		}
		return vals
	}
	out := RangeEstimates{
		Time:      make([]Estimate, len(targets.TimeFractions)),
		Component: make([]Estimate, len(targets.ComponentFractions)),
	}
	for i, f := range targets.TimeFractions {
		out.Time[i] = summarize(f, column(i))
	}
	for i, g := range targets.ComponentFractions {
		out.Component[i] = summarize(g, column(len(targets.TimeFractions)+i))
	}
	return out, nil
}

// floatsCodec is the checkpoint-row layout of a result that already is a
// flat row of the given width, such as EstimateRanges' per-target values.
func floatsCodec(width int) rowCodec[[]float64] {
	return rowCodec[[]float64]{
		width:  width,
		encode: func(row, vals []float64) []float64 { return append(row, vals...) },
		decode: func(row []float64) []float64 { return slices.Clone(row) },
	}
}

// estimateSnap is the per-snapshot result slot of EstimateRanges: the
// snapshot's critical radius and, when component targets need it, its
// largest-component curve in a buffer the slot reuses from snapshot to
// snapshot, so evaluation allocates nothing once the buffer has grown.
type estimateSnap struct {
	critical float64
	curve    graph.LargestCurve
}

// quantileForTimeFraction maps a time-fraction target to the corresponding
// per-iteration critical-radius quantile: target 1 is the maximum, target 0
// is the minimum (r_0), anything between is the f-quantile.
func quantileForTimeFraction(sortedCriticals []float64, f float64) float64 {
	switch {
	case f >= 1:
		return sortedCriticals[len(sortedCriticals)-1]
	case f <= 0:
		return sortedCriticals[0]
	default:
		return stats.QuantileSorted(sortedCriticals, f)
	}
}

// radiusForAverageLargest returns the minimal range at which the average
// (over the iteration's snapshots) largest-component size reaches
// frac * nodes, by bisection over the snapshots' largest-component curves.
// The average is monotone nondecreasing in the range, reaching nodes at the
// largest critical radius, which is the largest last step of the curves.
// Each curve answers with its profile's integer, and a sum of at most
// steps * nodes such integers is exact in float64, so the result is the
// bisection's over the whole profiles, bit for bit.
func radiusForAverageLargest(curves []graph.LargestCurve, nodes int, frac float64) float64 {
	target := frac * float64(nodes)
	avgAt := func(r float64) float64 {
		sum := 0.0
		for _, c := range curves {
			sum += float64(c.LargestAt(r))
		}
		return sum / float64(len(curves))
	}
	hi := 0.0
	for _, c := range curves {
		if last := c[len(c)-1].R; last > hi {
			hi = last
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
