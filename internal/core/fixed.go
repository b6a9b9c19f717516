package core

import (
	"context"
	"fmt"
	"math"

	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/stats"
)

// IterationResult holds the paper simulator's outputs for one iteration at
// one transmitting range.
type IterationResult struct {
	// ConnectedFraction is the fraction of evaluated snapshots whose
	// communication graph was connected.
	ConnectedFraction float64
	// AvgLargestDisconnected is the average size of the largest connected
	// component over the disconnected snapshots (the paper's convention);
	// NaN when every snapshot was connected.
	AvgLargestDisconnected float64
	// MinLargest is the minimum size of the largest connected component over
	// all snapshots.
	MinLargest int
	// Intervals summarizes the maximal runs of consecutive disconnected
	// snapshots — the network-availability view of Section 1.
	Intervals IntervalStats
}

// IntervalStats describes the disconnection intervals (outages) of one
// simulated trajectory.
type IntervalStats struct {
	// Count is the number of maximal disconnected runs.
	Count int
	// MeanLength and MaxLength are in snapshots; MeanLength is NaN when
	// Count is 0.
	MeanLength float64
	MaxLength  int
}

// FixedRangeResult aggregates a fixed-range simulation across iterations.
type FixedRangeResult struct {
	Radius float64
	// ConnectedFraction is the overall fraction of connected snapshots.
	ConnectedFraction float64
	// AvgLargestDisconnected is the average largest-component size over all
	// disconnected snapshots of all iterations (NaN if none), and
	// AvgLargestFraction the same divided by the node count.
	AvgLargestDisconnected float64
	AvgLargestFraction     float64
	// MinLargest is the minimum largest-component size seen anywhere.
	MinLargest int
	// PerIteration holds the per-iteration results.
	PerIteration []IterationResult
}

// EvaluateFixedRanges simulates the network once and reports the paper
// simulator's outputs for every requested transmitting range. Each
// snapshot's connectivity profile answers all ranges at once, so the cost is
// one trajectory pass regardless of len(radii).
//
// The run honors ctx (a canceled run returns ErrCanceled within about one
// snapshot's evaluation time) and supports checkpoint/resume through
// cfg.Sink; an iteration's checkpoint row is its IterationResult per radius.
func EvaluateFixedRanges(ctx context.Context, net Network, cfg RunConfig, radii []float64) ([]FixedRangeResult, error) {
	return evaluateFixed(ctx, net, cfg, radii,
		func(_ int, pts []geom.Point, moved []int32, ws *graph.Workspace, out []radiusObs) {
			p := ws.ProfileKinetic(pts, net.Region.Dim, moved)
			for i, r := range radii {
				out[i] = radiusObs{largest: int32(p.LargestAt(r)), connected: p.ConnectedAt(r)}
			}
		})
}

// EvaluateFixedRange is EvaluateFixedRanges for a single radius.
func EvaluateFixedRange(ctx context.Context, net Network, cfg RunConfig, radius float64) (FixedRangeResult, error) {
	res, err := EvaluateFixedRanges(ctx, net, cfg, []float64{radius})
	if err != nil {
		return FixedRangeResult{}, err
	}
	return res[0], nil
}

// DirectFixedRange is the reference implementation of EvaluateFixedRange: it
// rebuilds the communication graph explicitly at the given radius after
// every mobility step, exactly as the paper's simulator did, instead of
// deriving connectivity from MST profiles. The graph is rebuilt on the
// kinetic path too; RunConfig.Kinetic affects only the profile entry
// points. It exists for cross-validation (the two must agree bit-for-bit on
// the same seed) and for the profile-vs-direct ablation benchmark. It shares the lifecycle contract of
// EvaluateFixedRanges: ctx cancellation, panic containment, and
// checkpoint/resume through cfg.Sink (same row layout, one radius).
func DirectFixedRange(ctx context.Context, net Network, cfg RunConfig, radius float64) (FixedRangeResult, error) {
	res, err := evaluateFixed(ctx, net, cfg, []float64{radius},
		func(_ int, pts []geom.Point, _ []int32, ws *graph.Workspace, out []radiusObs) {
			g := ws.PointGraph(pts, net.Region.Dim, radius)
			components, largest := ws.ComponentSummary(g)
			out[0] = radiusObs{largest: int32(largest), connected: components <= 1}
		})
	if err != nil {
		return FixedRangeResult{}, err
	}
	return res[0], nil
}

// evaluateFixed is the fixed-range pipeline shared by EvaluateFixedRanges
// and DirectFixedRange, which differ only in eval: how one snapshot's
// observation at every radius is obtained.
func evaluateFixed(ctx context.Context, net Network, cfg RunConfig, radii []float64,
	eval func(step int, pts []geom.Point, moved []int32, ws *graph.Workspace, out []radiusObs),
) ([]FixedRangeResult, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(radii) == 0 {
		return nil, fmt.Errorf("core: no radii to evaluate")
	}
	for _, r := range radii {
		if r < 0 || math.IsNaN(r) {
			return nil, fmt.Errorf("core: invalid radius %v", r)
		}
	}
	iters, err := runIterations(ctx, cfg, fixedCodec(len(radii)), func(ctx context.Context, it iteration) ([]IterationResult, error) {
		accs := make([]fixedAccumulator, len(radii))
		for i := range accs {
			accs[i].minLargest = net.Nodes + 1
		}
		err := runTrajectory(ctx, it, net,
			func() []radiusObs { return make([]radiusObs, len(radii)) },
			eval,
			func(_ int, out []radiusObs) {
				// Interval (outage-run) tracking is order-sensitive; the
				// ordered reduction guarantees step order here.
				for i := range out {
					accs[i].observe(int(out[i].largest), out[i].connected)
				}
			})
		if err != nil {
			return nil, err
		}
		res := make([]IterationResult, len(radii))
		for i := range accs {
			res[i] = accs[i].finish()
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]FixedRangeResult, len(radii))
	for i, r := range radii {
		perIter := make([]IterationResult, len(iters))
		for k := range iters {
			perIter[k] = iters[k][i]
		}
		out[i] = reduceFixed(r, net.Nodes, cfg.Steps, perIter)
	}
	return out, nil
}

// iterationResultWidth is the flat checkpoint-row footprint of one
// IterationResult. The integer fields (MinLargest, interval counts and
// lengths) are bounded by the node and step counts, far inside float64's
// exact-integer range, so the encoding is lossless; the NaN sentinels travel
// as raw bit patterns (the checkpoint format stores IEEE bits).
const iterationResultWidth = 6

// fixedCodec is the checkpoint-row layout of a fixed-range run over the
// given number of radii: one IterationResult per radius, in radius order.
func fixedCodec(radii int) rowCodec[[]IterationResult] {
	return rowCodec[[]IterationResult]{
		width: FixedRangeRowWidth(radii),
		encode: func(row []float64, rs []IterationResult) []float64 {
			for _, r := range rs {
				row = append(row,
					r.ConnectedFraction,
					r.AvgLargestDisconnected,
					float64(r.MinLargest),
					float64(r.Intervals.Count),
					r.Intervals.MeanLength,
					float64(r.Intervals.MaxLength),
				)
			}
			return row
		},
		decode: func(row []float64) []IterationResult {
			rs := make([]IterationResult, radii)
			for i := range rs {
				v := row[i*iterationResultWidth:]
				rs[i] = IterationResult{
					ConnectedFraction:      v[0],
					AvgLargestDisconnected: v[1],
					MinLargest:             int(v[2]),
					Intervals: IntervalStats{
						Count:      int(v[3]),
						MeanLength: v[4],
						MaxLength:  int(v[5]),
					},
				}
			}
			return rs
		},
	}
}

// FixedRangeRowWidth returns the checkpoint-row width of a fixed-range run
// over the given number of radii, for building checkpoint metadata up front.
func FixedRangeRowWidth(radii int) int { return radii * iterationResultWidth }

// radiusObs is one snapshot's observation at one radius: the
// largest-component size and whether the graph was connected.
type radiusObs struct {
	largest   int32
	connected bool
}

// fixedAccumulator folds per-snapshot observations at one radius.
type fixedAccumulator struct {
	steps            int
	connected        int
	largestDiscSum   float64
	largestDiscCount int
	minLargest       int

	intervals  int
	runLen     int
	runLenSum  int
	longestRun int
	inDisc     bool
}

// observe folds one snapshot's observation. Calls must arrive in step order
// (runs of consecutive disconnected snapshots are tracked across calls).
// "Connected" follows the paper's convention that graphs on fewer than two
// nodes are trivially connected, for both the profile path (ConnectedAt) and
// the direct path (component count <= 1).
//
//adhoc:hotpath
func (a *fixedAccumulator) observe(largest int, connected bool) {
	a.steps++
	if largest < a.minLargest {
		a.minLargest = largest
	}
	if connected {
		a.connected++
		a.inDisc = false
		return
	}
	a.largestDiscSum += float64(largest)
	a.largestDiscCount++
	if !a.inDisc {
		a.inDisc = true
		a.intervals++
		a.runLen = 0
	}
	a.runLen++
	a.runLenSum++
	if a.runLen > a.longestRun {
		a.longestRun = a.runLen
	}
}

func (a *fixedAccumulator) finish() IterationResult {
	res := IterationResult{
		ConnectedFraction: float64(a.connected) / float64(a.steps),
		MinLargest:        a.minLargest,
		Intervals: IntervalStats{
			Count:     a.intervals,
			MaxLength: a.longestRun,
		},
	}
	if a.largestDiscCount > 0 {
		res.AvgLargestDisconnected = a.largestDiscSum / float64(a.largestDiscCount)
	} else {
		res.AvgLargestDisconnected = math.NaN()
	}
	if a.intervals > 0 {
		res.Intervals.MeanLength = float64(a.runLenSum) / float64(a.intervals)
	} else {
		res.Intervals.MeanLength = math.NaN()
	}
	return res
}

func reduceFixed(r float64, nodes, steps int, iters []IterationResult) FixedRangeResult {
	out := FixedRangeResult{
		Radius:       r,
		MinLargest:   nodes + 1,
		PerIteration: iters,
	}
	var connAcc stats.Accumulator
	discSum := 0.0
	discWeight := 0.0
	for _, it := range iters {
		connAcc.Add(it.ConnectedFraction)
		if !math.IsNaN(it.AvgLargestDisconnected) {
			// Weight by the number of disconnected snapshots so the overall
			// average matches a flat average over all disconnected graphs.
			w := (1 - it.ConnectedFraction) * float64(steps)
			discSum += it.AvgLargestDisconnected * w
			discWeight += w
		}
		if it.MinLargest < out.MinLargest {
			out.MinLargest = it.MinLargest
		}
	}
	out.ConnectedFraction = connAcc.Mean()
	if discWeight > 0 {
		out.AvgLargestDisconnected = discSum / discWeight
		out.AvgLargestFraction = out.AvgLargestDisconnected / float64(nodes)
	} else {
		out.AvgLargestDisconnected = math.NaN()
		out.AvgLargestFraction = math.NaN()
	}
	if out.MinLargest > nodes {
		out.MinLargest = nodes
	}
	return out
}
