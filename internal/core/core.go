// Package core implements the paper's connectivity simulator: it evaluates
// the Minimum Transmitting Range problem (MTR) for stationary networks and
// its mobile variant (MTRM) for networks whose nodes move according to a
// mobility model.
//
// The simulator follows Section 4.1 of the paper: n nodes are distributed
// uniformly in [0,l]^d, all nodes share one transmitting range r, and the
// communication graph is re-evaluated after every mobility step. Outputs are
// the percentage of connected graphs, the average size of the largest
// connected component over the disconnected graphs, and the minimum size of
// the largest connected component, per iteration and overall.
//
// Where the package goes beyond a literal re-implementation is in *how* the
// per-step connectivity is obtained: every snapshot's connectivity profile
// (critical radius plus largest-component-vs-range curve) is computed from
// its Euclidean MST, so a single pass over a trajectory yields the paper's
// metrics for every transmitting range at once — r_100, r_90, r_10, r_0 and
// the r_l component-size targets fall out of one simulation instead of one
// bisection run each. A direct fixed-range evaluator is also provided and
// the two are cross-validated in the tests.
package core

import (
	"fmt"
	"runtime"

	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
	"adhocnet/internal/obs"
	"adhocnet/internal/spatial"
	"adhocnet/internal/xrand"
)

// Network describes the simulated ad hoc network M_d = (N, P): node count,
// deployment region [0,l]^d, the mobility model that realizes the placement
// function P over time, and the initial-position distribution (nil means
// the paper's i.i.d. uniform placement).
type Network struct {
	Nodes     int
	Region    geom.Region
	Model     mobility.Model
	Placement mobility.Placement
}

// Validate checks the network description.
func (n Network) Validate() error {
	if n.Nodes < 0 {
		return fmt.Errorf("core: negative node count %d", n.Nodes)
	}
	if _, err := geom.NewRegion(n.Region.L, n.Region.Dim); err != nil {
		return err
	}
	if n.Model == nil {
		return fmt.Errorf("core: network has no mobility model")
	}
	if err := n.Model.Validate(); err != nil {
		return err
	}
	if n.Placement != nil {
		return n.Placement.Validate(n.Region)
	}
	return nil
}

// RunConfig fixes the Monte-Carlo parameters of a simulation: the number of
// independent iterations, the number of evaluated snapshots per iteration
// (the initial placement counts as the first snapshot, so Steps = 1
// reproduces the paper's stationary case), the master seed, and the worker
// parallelism.
type RunConfig struct {
	Iterations int
	Steps      int
	Seed       uint64
	// Workers bounds the total simulation parallelism; 0 means GOMAXPROCS.
	// The two-level scheduler (scheduler.go) splits the budget across
	// concurrent iterations and, when Iterations < Workers, across the
	// snapshots within each iteration (see Levels). Results are
	// deterministic regardless of Workers.
	Workers int
	// Spatial selects the spatial-index backend for all pair scans: the zero
	// value (spatial.BackendAuto) picks grid or k-d tree per snapshot from
	// the sampled cell crowding, the others force one implementation. Like
	// Workers this is a pure performance knob — both backends produce
	// bit-identical results (cross-validated in the tests), so it is
	// excluded from workload identity.
	Spatial spatial.Backend
	// Kinetic selects between rebuild-per-snapshot and incremental (kinetic)
	// MST evaluation: the zero value (KineticAuto) repairs each snapshot's
	// MST profile across mobility steps whenever each iteration is
	// evaluated by a single worker, KineticOn/KineticOff force one path.
	// KineticOn keeps the snapshot pool: its evaluators repair within
	// blocks of consecutive steps. The communication graph is rebuilt per
	// snapshot in every mode. Like Workers and Spatial this is a pure
	// performance knob — both paths produce bit-identical results
	// (cross-validated in the tests), so it is excluded from workload
	// identity.
	Kinetic KineticMode
	// Sink, when non-nil, enables checkpoint/resume at outer-iteration
	// granularity: iterations the sink already holds are restored instead
	// of simulated, and every newly completed iteration is committed to it
	// (see IterationSink and internal/checkpoint). A resumed run is
	// bit-identical to an uninterrupted one. Sink never affects results,
	// only which iterations are recomputed.
	Sink IterationSink
	// Obs, when non-nil, receives run telemetry: iteration progress, phase
	// timing histograms, scheduler pipeline counters and the kinetic/spatial
	// operation counters drained from every workspace (see internal/obs and
	// obsmetrics.go). Observability is excluded from workload identity and
	// can never perturb results: all counters are deterministic functions of
	// the workload, wall-clock reads happen only when the registry is live
	// (obs.Registry.Enabled) and feed timing metrics only, and a nil or
	// disabled registry reduces the instrumentation to nil-handle no-ops.
	// The determinism tests pin results bit-identical across nil, disabled
	// and enabled registries.
	Obs *obs.Registry
}

// Validate checks the run configuration.
func (c RunConfig) Validate() error {
	if c.Iterations <= 0 {
		return fmt.Errorf("core: iterations must be positive, got %d", c.Iterations)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("core: steps must be positive, got %d", c.Steps)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative workers %d", c.Workers)
	}
	if c.Spatial > spatial.BackendKDTree {
		return fmt.Errorf("core: unknown spatial backend %d", c.Spatial)
	}
	if c.Kinetic > KineticOff {
		return fmt.Errorf("core: unknown kinetic mode %d", c.Kinetic)
	}
	return nil
}

// IterationSeeds returns the independent random streams of the run's
// iterations: iteration i of every evaluator draws from element i, split
// from the master seed. Evaluators outside core that call it see the same
// randomness as core's own entry points at the same RunConfig.
func IterationSeeds(c RunConfig) []*xrand.Rand {
	return xrand.New(c.Seed).SplitN(c.Iterations)
}

func (c RunConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// snapshotProfile computes the connectivity profile of a placement, using
// the O(n log n) sorted-gaps algorithm in one dimension and the Euclidean
// MST otherwise. It allocates a fresh profile per call; the simulation loops
// use the workspace path instead (graph.Workspace.Profile), which reuses all
// scratch storage across snapshots.
func snapshotProfile(pts []geom.Point, dim int) *graph.Profile {
	if dim == 1 {
		xs := make([]float64, len(pts))
		for i, p := range pts {
			xs[i] = p.X
		}
		return graph.NewProfile1D(xs)
	}
	return graph.NewProfile(pts)
}
