package core

import (
	"context"
	"fmt"
	"math"

	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/stats"
)

// StructureResult aggregates structural properties of the communication
// graph over a simulated trajectory at a fixed transmitting range: degree
// (interference/capacity proxy), isolated-node counts (the paper's
// explanation for why disconnection at r_90 is benign), multi-hop path
// statistics, and single-point-of-failure counts.
type StructureResult struct {
	Radius float64
	// MeanDegree is the average node degree over all snapshots.
	MeanDegree float64
	// MeanIsolated is the average number of degree-zero nodes per snapshot.
	MeanIsolated float64
	// IsolatedOnlyFraction is, among disconnected snapshots, the fraction
	// whose disconnection is explained by isolated nodes alone (removing
	// them leaves one connected component). The paper's Figures 4-5 argue
	// this is the dominant failure mode at r_90.
	IsolatedOnlyFraction float64
	// MeanDiameter and MeanHops are snapshot averages of the hop diameter and
	// the mean shortest-path length, both taken over every connected ordered
	// pair of nodes in every component (graph.HopStats).
	MeanDiameter float64
	MeanHops     float64
	// MeanArticulation is the average number of cut vertices per snapshot.
	MeanArticulation float64
	// BiconnectedFraction is the fraction of snapshots whose graph survives
	// any single node failure.
	BiconnectedFraction float64
	// Snapshots is the number of evaluated snapshots.
	Snapshots int
}

// iterAcc folds one iteration's snapshot metrics.
type iterAcc struct {
	degree, isolated, diameter, hops, articulation stats.Accumulator
	biconnected                                    int
	disconnected                                   int
	isolatedOnly                                   int
	snapshots                                      int
}

// iterAccWidth is the flat checkpoint-row footprint of one iterAcc: five
// accumulators of five raw values each, plus the four counters. Counts fit
// exactly in float64 (they are bounded by the step count).
const iterAccWidth = 5*5 + 4

// iterAccCodec flattens the accumulator state onto a checkpoint row (see
// stats.Accumulator State/Restore for why raw state, not re-observation, is
// required for bit-identical resume).
var iterAccCodec = rowCodec[iterAcc]{
	width: iterAccWidth,
	encode: func(row []float64, a iterAcc) []float64 {
		for _, acc := range []*stats.Accumulator{&a.degree, &a.isolated, &a.diameter, &a.hops, &a.articulation} {
			n, mean, m2, min, max := acc.State()
			row = append(row, float64(n), mean, m2, min, max)
		}
		return append(row, float64(a.biconnected), float64(a.disconnected), float64(a.isolatedOnly), float64(a.snapshots))
	},
	decode: func(row []float64) (a iterAcc) {
		for _, acc := range []*stats.Accumulator{&a.degree, &a.isolated, &a.diameter, &a.hops, &a.articulation} {
			acc.Restore(int64(row[0]), row[1], row[2], row[3], row[4])
			row = row[5:]
		}
		a.biconnected = int(row[0])
		a.disconnected = int(row[1])
		a.isolatedOnly = int(row[2])
		a.snapshots = int(row[3])
		return a
	},
}

// EvaluateStructure simulates the network and measures graph-structure
// metrics at the given transmitting range. It evaluates the explicit
// communication graph of every snapshot (the profile shortcut cannot answer
// degree or hop questions), rebuilt from scratch at every snapshot whatever
// the kinetic mode.
//
// The run honors ctx (a canceled run returns ErrCanceled within about one
// snapshot's evaluation time) and supports checkpoint/resume through
// cfg.Sink; an iteration's checkpoint row is its raw accumulator state.
func EvaluateStructure(ctx context.Context, net Network, cfg RunConfig, radius float64) (StructureResult, error) {
	if err := net.Validate(); err != nil {
		return StructureResult{}, err
	}
	if radius < 0 || math.IsNaN(radius) {
		return StructureResult{}, fmt.Errorf("core: invalid radius %v", radius)
	}

	accs, err := runIterations(ctx, cfg, iterAccCodec, func(ctx context.Context, it iteration) (iterAcc, error) {
		var acc iterAcc
		err := runTrajectory(ctx, it, net,
			func() *graph.Structure { return &graph.Structure{} },
			func(_ int, pts []geom.Point, _ []int32, ws *graph.Workspace, out *graph.Structure) {
				*out = ws.Structure(ws.PointGraph(pts, net.Region.Dim, radius))
			},
			func(_ int, out *graph.Structure) {
				// Accumulator addition order is the float-summation order;
				// merging in step order keeps results bit-identical across
				// worker counts.
				acc.snapshots++
				acc.degree.Add(out.Degree.Mean)
				acc.isolated.Add(float64(out.Degree.Isolated))
				if out.Components > 1 {
					acc.disconnected++
					if out.IsolatedOnly {
						acc.isolatedOnly++
					}
				}
				acc.diameter.Add(float64(out.Hops.Diameter))
				acc.hops.Add(out.Hops.MeanHops)
				acc.articulation.Add(float64(out.Articulation))
				if out.Biconnected {
					acc.biconnected++
				}
			})
		return acc, err
	})
	if err != nil {
		return StructureResult{}, err
	}

	var out StructureResult
	out.Radius = radius
	var degree, isolated, diameter, hops, articulation stats.Accumulator
	biconnected, snapshots := 0, 0
	disconnected, isolatedOnly := 0, 0
	for i := range accs {
		degree.Merge(&accs[i].degree)
		isolated.Merge(&accs[i].isolated)
		diameter.Merge(&accs[i].diameter)
		hops.Merge(&accs[i].hops)
		articulation.Merge(&accs[i].articulation)
		biconnected += accs[i].biconnected
		snapshots += accs[i].snapshots
		disconnected += accs[i].disconnected
		isolatedOnly += accs[i].isolatedOnly
	}
	out.MeanDegree = degree.Mean()
	out.MeanIsolated = isolated.Mean()
	out.MeanDiameter = diameter.Mean()
	out.MeanHops = hops.Mean()
	out.MeanArticulation = articulation.Mean()
	out.Snapshots = snapshots
	if snapshots > 0 {
		out.BiconnectedFraction = float64(biconnected) / float64(snapshots)
	}
	if disconnected > 0 {
		out.IsolatedOnlyFraction = float64(isolatedOnly) / float64(disconnected)
	} else {
		out.IsolatedOnlyFraction = math.NaN()
	}
	return out, nil
}
