// Package dissemination simulates epidemic (store-and-forward) message
// propagation over a mobile ad hoc network. It operationalizes the paper's
// third dependability scenario: "the network stays disconnected most of the
// time, but temporary connection periods can be used to exchange data among
// nodes ... reducing energy consumption is the primary concern, and
// temporary connectedness is sufficient to ensure that the data sent by a
// sensor is eventually received by the other nodes."
//
// The model is flooding with unlimited buffers: at every mobility step, every
// node within transmitting range of an informed node becomes informed (via
// the connected component — information crosses an entire component in one
// step, the standard epidemic idealization for per-step dissemination).
// The package measures how long a message started at a random node needs to
// cover a fraction of the network, which makes the r_10-style operating
// points quantitative: far below r_stationary the network is almost never
// connected, yet mobility ferries data everywhere eventually.
package dissemination

import (
	"fmt"
	"math"

	"adhocnet/internal/core"
	"adhocnet/internal/graph"
	"adhocnet/internal/stats"
	"adhocnet/internal/xrand"
)

// Config describes one dissemination study.
type Config struct {
	// Radius is the common transmitting range.
	Radius float64
	// TargetFraction is the informed fraction that counts as delivery
	// (for example 1.0 for full coverage, 0.9 for 90% of the nodes).
	TargetFraction float64
	// MaxSteps bounds the simulation; runs that do not reach the target
	// within the bound are reported as censored.
	MaxSteps int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Radius < 0 || math.IsNaN(c.Radius) {
		return fmt.Errorf("dissemination: invalid radius %v", c.Radius)
	}
	if c.TargetFraction <= 0 || c.TargetFraction > 1 {
		return fmt.Errorf("dissemination: target fraction must be in (0,1], got %v", c.TargetFraction)
	}
	if c.MaxSteps <= 0 {
		return fmt.Errorf("dissemination: max steps must be positive, got %d", c.MaxSteps)
	}
	return nil
}

// Result aggregates dissemination outcomes across iterations.
type Result struct {
	// Delivered is the fraction of iterations that reached the target
	// within MaxSteps.
	Delivered float64
	// Steps summarizes the delivery times of the successful iterations
	// (mean/min/max over iterations, in mobility steps).
	StepsMean, StepsMin, StepsMax float64
	// MeanInformedAtCutoff is the average informed fraction at MaxSteps
	// over the censored iterations (NaN if none).
	MeanInformedAtCutoff float64
}

// Run simulates dissemination over the network: in each iteration one
// uniformly chosen source learns the message at step 0, and flooding spreads
// it until the target fraction is informed or MaxSteps elapse.
func Run(net core.Network, runCfg core.RunConfig, cfg Config) (Result, error) {
	if err := net.Validate(); err != nil {
		return Result{}, err
	}
	if err := runCfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if net.Nodes < 1 {
		return Result{}, fmt.Errorf("dissemination: need at least one node")
	}

	type outcome struct {
		delivered bool
		steps     int
		informed  float64
	}
	outcomes := make([]outcome, runCfg.Iterations)
	target := int(math.Ceil(cfg.TargetFraction * float64(net.Nodes)))
	if target < 1 {
		target = 1
	}

	iterate := func(rng *xrand.Rand) (outcome, error) {
		state, err := net.Model.NewState(rng, net.Region, net.Nodes, net.Placement)
		if err != nil {
			return outcome{}, err
		}
		informed := make([]bool, net.Nodes)
		informed[rng.Intn(net.Nodes)] = true
		count := 1
		for step := 0; step <= cfg.MaxSteps; step++ {
			if step > 0 {
				state.Step()
			}
			// Spread within connected components.
			g := graph.BuildPointGraph(state.Positions(), net.Region.Dim, cfg.Radius)
			labels, sizes := g.Components()
			componentInformed := make([]bool, len(sizes))
			for i, inf := range informed {
				if inf {
					componentInformed[labels[i]] = true
				}
			}
			count = 0
			for i := range informed {
				if componentInformed[labels[i]] {
					informed[i] = true
				}
				if informed[i] {
					count++
				}
			}
			if count >= target {
				return outcome{delivered: true, steps: step}, nil
			}
		}
		return outcome{informed: float64(count) / float64(net.Nodes)}, nil
	}
	for iter, rng := range core.IterationSeeds(runCfg) {
		o, err := iterate(rng)
		if err != nil {
			return Result{}, err
		}
		outcomes[iter] = o
	}

	var res Result
	var steps, censored stats.Accumulator
	deliveredCount := 0
	for _, o := range outcomes {
		if o.delivered {
			deliveredCount++
			steps.Add(float64(o.steps))
		} else {
			censored.Add(o.informed)
		}
	}
	res.Delivered = float64(deliveredCount) / float64(runCfg.Iterations)
	if deliveredCount > 0 {
		res.StepsMean = steps.Mean()
		res.StepsMin = steps.Min()
		res.StepsMax = steps.Max()
	} else {
		res.StepsMean = math.NaN()
		res.StepsMin = math.NaN()
		res.StepsMax = math.NaN()
	}
	if censored.N() > 0 {
		res.MeanInformedAtCutoff = censored.Mean()
	} else {
		res.MeanInformedAtCutoff = math.NaN()
	}
	return res, nil
}
