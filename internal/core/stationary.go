package core

import (
	"context"
	"fmt"
	"sort"

	"adhocnet/internal/geom"
	"adhocnet/internal/stats"
)

// DefaultStationaryQuantile is the quantile of the stationary
// critical-radius distribution used as r_stationary when none is specified.
// The paper takes r_stationary from the stationary simulations of [1,11]
// ("the value of r ensuring connected graphs in the stationary case"); the
// 0.99 quantile operationalizes "ensuring" as 99% of random placements
// connected. The quantile-sensitivity ablation bench varies this choice.
const DefaultStationaryQuantile = 0.99

// StationaryCriticalSample draws the critical transmitting ranges of
// independent uniform placements of n nodes in the region: sample i is the
// minimal r connecting placement i, the longest edge of its MST
// (graph.Workspace.Critical, which builds no profile). The returned slice is
// sorted ascending, so it doubles as the empirical distribution (use
// stats.ECDF / stats.QuantileSorted on it directly).
//
// The run honors ctx: a canceled run returns ErrCanceled promptly.
func StationaryCriticalSample(ctx context.Context, reg geom.Region, n, samples int, seed uint64, workers int) ([]float64, error) {
	if _, err := geom.NewRegion(reg.L, reg.Dim); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("core: stationary sample needs at least 2 nodes, got %d", n)
	}
	if samples <= 0 {
		return nil, fmt.Errorf("core: sample count must be positive, got %d", samples)
	}
	cfg := RunConfig{Iterations: samples, Steps: 1, Seed: seed, Workers: workers}
	// One snapshot per sample: the outer level alone saturates the budget.
	out, err := runIterations(ctx, cfg, criticalCodec, func(_ context.Context, it iteration) (float64, error) {
		pts := it.ws.Points(n)
		reg.FillUniformPoints(it.rng, pts)
		return it.ws.Critical(pts, reg.Dim), nil
	})
	if err != nil {
		return nil, err
	}
	sort.Float64s(out)
	return out, nil
}

// criticalCodec is the width-1 checkpoint-row layout of one stationary
// sample: its critical radius.
var criticalCodec = rowCodec[float64]{
	width:  1,
	encode: func(row []float64, critical float64) []float64 { return append(row, critical) },
	decode: func(row []float64) float64 { return row[0] },
}

// RStationary estimates the stationary transmitting range r_stationary as
// the given quantile of the critical-radius distribution over random uniform
// placements.
func RStationary(ctx context.Context, reg geom.Region, n, samples int, seed uint64, workers int, quantile float64) (float64, error) {
	if quantile <= 0 || quantile > 1 {
		return 0, fmt.Errorf("core: quantile must be in (0,1], got %v", quantile)
	}
	sample, err := StationaryCriticalSample(ctx, reg, n, samples, seed, workers)
	if err != nil {
		return 0, err
	}
	return stats.QuantileSorted(sample, quantile), nil
}

// MinNodesForConnectivity solves the paper's alternate MTR formulation ("for
// a given transmitter technology, how many nodes must be distributed over a
// given region to ensure connectedness with high probability?"): the
// smallest n such that the fraction of random uniform placements of n nodes
// connected at range r reaches probability p. The connectivity probability
// is monotone in n for fixed r, so the search doubles and then bisects; each
// probe is a Monte-Carlo estimate over the given number of samples.
func MinNodesForConnectivity(ctx context.Context, reg geom.Region, r, p float64, samples int, seed uint64, workers int) (int, error) {
	if _, err := geom.NewRegion(reg.L, reg.Dim); err != nil {
		return 0, err
	}
	if r <= 0 {
		return 0, fmt.Errorf("core: range must be positive, got %v", r)
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("core: target probability must be in (0,1), got %v", p)
	}
	if samples <= 0 {
		return 0, fmt.Errorf("core: sample count must be positive, got %d", samples)
	}
	if r >= reg.Diameter() {
		return 1, nil // any placement is connected
	}
	probe := func(n int) (float64, error) {
		sample, err := StationaryCriticalSample(ctx, reg, n, samples, seed, workers)
		if err != nil {
			return 0, err
		}
		return stats.ECDF(sample, r), nil
	}
	// The search cap bounds the cost of hopeless queries. 1-D probes are
	// O(n log n) per sample; 2-D/3-D probes run the grid-accelerated MST,
	// near-linear per sample, so since the GeoMST rework the caps are of the
	// same order (a fixed-technology dimensioning question needing more
	// nodes than this is out of the simulator's scope anyway).
	maxN := 1 << 20
	if reg.Dim > 1 {
		maxN = 1 << 16
	}
	hi := 2
	for hi < maxN {
		frac, err := probe(hi)
		if err != nil {
			return 0, err
		}
		if frac >= p {
			break
		}
		hi *= 2
	}
	if hi >= maxN {
		return 0, fmt.Errorf("core: no n <= %d reaches probability %v at range %v", maxN, p, r)
	}
	lo := hi / 2
	for lo+1 < hi {
		mid := (lo + hi) / 2
		frac, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if frac >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
