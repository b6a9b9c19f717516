package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/spatial"
	"adhocnet/internal/xrand"
)

// driftNet is the kinetic pipeline's home regime: a drunkard crowd where 98%
// of the nodes pause each step and the movers hop a tiny fraction of the
// region, so consecutive snapshots differ in a small moved set.
func driftNet(t *testing.T, n int) Network {
	t.Helper()
	net := schedulerTestNet(t, n)
	net.Model = mobility.Drunkard{PStationary: 0, PPause: 0.98, M: 2}
	return net
}

// stateOnlyModel hides Mover on its model's states, so core has to adapt
// them with mobility.TrackMoves's position-diff wrapper instead of reading
// the model's native moved sets.
type stateOnlyModel struct{ mobility.Model }

func (m stateOnlyModel) NewState(rng *xrand.Rand, reg geom.Region, n int, place mobility.Placement) (mobility.State, error) {
	s, err := m.Model.NewState(rng, reg, n, place)
	if err != nil {
		return nil, err
	}
	return stateOnly{s}, nil
}

// stateOnly strips the Mover interface off a State.
type stateOnly struct{ s mobility.State }

func (w stateOnly) Positions() []geom.Point { return w.s.Positions() }
func (w stateOnly) Step()                   { w.s.Step() }

// trackedDriftNet is driftNet behind a State that does not implement Mover.
func trackedDriftNet(t *testing.T, n int) Network {
	t.Helper()
	net := driftNet(t, n)
	net.Model = stateOnlyModel{net.Model}
	return net
}

// TestCoreResultsIdenticalAcrossKineticModes is the acceptance gate of the
// kinetic pipeline: every core entry point must produce bit-identical
// results across kinetic mode x spatial backend x worker count. The
// baseline is the fully conservative configuration (rebuild path, grid,
// one worker); kinetic-on forces the incremental path even in the
// pool-parallel regime, so a repair bug in any layer (k-d tree refit, MST
// repair, moved-set reporting) shows up as a diff here.
func TestCoreResultsIdenticalAcrossKineticModes(t *testing.T) {
	leakCheck(t)
	ctx := context.Background()
	nets := map[string]Network{
		"drift":         driftNet(t, 256),
		"drift-tracked": trackedDriftNet(t, 256),
		"clustered":     clusteredNet(t, 256, 4),
		"uniform":       schedulerTestNet(t, 256),
	}
	targets := RangeTargets{TimeFractions: []float64{1, 0.9}}
	backends := []spatial.Backend{spatial.BackendAuto, spatial.BackendGrid, spatial.BackendKDTree}
	modes := []KineticMode{KineticAuto, KineticOn, KineticOff}
	for netName, net := range nets {
		base := RunConfig{Iterations: 3, Steps: 12, Seed: 41, Workers: 1,
			Spatial: spatial.BackendGrid, Kinetic: KineticOff}

		wantEst, err := EstimateRanges(ctx, net, base, targets)
		if err != nil {
			t.Fatal(err)
		}
		wantFixed, err := EvaluateFixedRanges(ctx, net, base, []float64{120, 700})
		if err != nil {
			t.Fatal(err)
		}
		wantDirect, err := DirectFixedRange(ctx, net, base, 400)
		if err != nil {
			t.Fatal(err)
		}
		wantStruct, err := EvaluateStructure(ctx, net, base, 400)
		if err != nil {
			t.Fatal(err)
		}

		for _, mode := range modes {
			for _, backend := range backends {
				for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
					cfg := base
					cfg.Kinetic = mode
					cfg.Spatial = backend
					cfg.Workers = workers
					name := netName + "/" + mode.String() + "/" + backend.String()

					est, err := EstimateRanges(ctx, net, cfg, targets)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(est, wantEst) {
						t.Fatalf("%s workers=%d: EstimateRanges differs from rebuild baseline", name, workers)
					}
					fixed, err := EvaluateFixedRanges(ctx, net, cfg, []float64{120, 700})
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(fixed, wantFixed) {
						t.Fatalf("%s workers=%d: EvaluateFixedRanges differs from rebuild baseline", name, workers)
					}
					direct, err := DirectFixedRange(ctx, net, cfg, 400)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(direct, wantDirect) {
						t.Fatalf("%s workers=%d: DirectFixedRange differs from rebuild baseline", name, workers)
					}
					structure, err := EvaluateStructure(ctx, net, cfg, 400)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(structure, wantStruct) {
						t.Fatalf("%s workers=%d: EvaluateStructure differs from rebuild baseline", name, workers)
					}
				}
			}
		}
	}
}

// allMoversNet is the kinetic pipeline's worst case: a drunkard crowd in
// which every node moves every step, so each step is dirtier than the repair
// threshold and, in the snapshot pool, each block's delta log fills after one
// step.
func allMoversNet(t *testing.T, n int) Network {
	t.Helper()
	net := schedulerTestNet(t, n)
	net.Model = mobility.Drunkard{PStationary: 0, PPause: 0, M: 2}
	return net
}

// TestCoreResultsIdenticalOnKineticPool is the block-pool leg of the
// kinetic matrix: one iteration with Workers >= 2 runs the snapshot pool,
// whose kinetic tasks are blocks of consecutive steps re-primed at every
// block start. 70 steps is not a multiple of kineticBlockLen, so the last
// block is short, and the all-movers trajectory cuts every block after one
// delta step (the delta-log bound). Every entry point must match the
// rebuild baseline at Workers = 1 bit for bit.
func TestCoreResultsIdenticalOnKineticPool(t *testing.T) {
	leakCheck(t)
	ctx := context.Background()
	nets := map[string]Network{
		"drift":         driftNet(t, 256),
		"drift-tracked": trackedDriftNet(t, 256),
		"clustered":     clusteredNet(t, 256, 4),
		"uniform":       schedulerTestNet(t, 256),
		"all-movers":    allMoversNet(t, 256),
	}
	targets := PaperTargets()
	backends := []spatial.Backend{spatial.BackendAuto, spatial.BackendGrid, spatial.BackendKDTree}
	for netName, net := range nets {
		base := RunConfig{Iterations: 1, Steps: 70, Seed: 43, Workers: 1,
			Spatial: spatial.BackendGrid, Kinetic: KineticOff}

		wantEst, err := EstimateRanges(ctx, net, base, targets)
		if err != nil {
			t.Fatal(err)
		}
		wantFixed, err := EvaluateFixedRanges(ctx, net, base, []float64{120, 700})
		if err != nil {
			t.Fatal(err)
		}
		wantDirect, err := DirectFixedRange(ctx, net, base, 400)
		if err != nil {
			t.Fatal(err)
		}
		wantStruct, err := EvaluateStructure(ctx, net, base, 400)
		if err != nil {
			t.Fatal(err)
		}

		for _, backend := range backends {
			for _, workers := range []int{2, 3, 4} {
				cfg := base
				cfg.Kinetic = KineticOn
				cfg.Spatial = backend
				cfg.Workers = workers
				name := fmt.Sprintf("%s/%s/workers=%d", netName, backend, workers)

				est, err := EstimateRanges(ctx, net, cfg, targets)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(est, wantEst) {
					t.Fatalf("%s: EstimateRanges differs from rebuild baseline", name)
				}
				fixed, err := EvaluateFixedRanges(ctx, net, cfg, []float64{120, 700})
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(fixed, wantFixed) {
					t.Fatalf("%s: EvaluateFixedRanges differs from rebuild baseline", name)
				}
				direct, err := DirectFixedRange(ctx, net, cfg, 400)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(direct, wantDirect) {
					t.Fatalf("%s: DirectFixedRange differs from rebuild baseline", name)
				}
				structure, err := EvaluateStructure(ctx, net, cfg, 400)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(structure, wantStruct) {
					t.Fatalf("%s: EvaluateStructure differs from rebuild baseline", name)
				}
			}
		}
	}
}

// TestRunConfigValidateKinetic rejects out-of-range kinetic modes and
// accepts every named one.
func TestRunConfigValidateKinetic(t *testing.T) {
	for _, m := range []KineticMode{KineticAuto, KineticOn, KineticOff} {
		cfg := RunConfig{Iterations: 1, Steps: 1, Kinetic: m}
		if err := cfg.Validate(); err != nil {
			t.Errorf("kinetic mode %v rejected: %v", m, err)
		}
	}
	cfg := RunConfig{Iterations: 1, Steps: 1, Kinetic: KineticMode(9)}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range kinetic mode accepted")
	}
}

// TestKineticSpeedup measures the end-to-end win of the kinetic pipeline on
// its target workload: a long low-motion trajectory where each step moves
// ~2% of the nodes a tiny distance, so the incremental grid/k-d tree/MST
// repair replaces the per-snapshot rebuild. Wall-clock assertions are flaky
// on shared runners, so the hard >= 2x bound applies only when
// ADHOCNET_STRICT_SPEEDUP=1 is set; the measured ratio is always logged.
func TestKineticSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock measurement; meaningless under -race")
	}
	ctx := context.Background()
	net := driftNet(t, 8192)
	cfg := RunConfig{Iterations: 1, Steps: 48, Seed: 7, Workers: 1}
	targets := RangeTargets{TimeFractions: []float64{1}}

	timeMode := func(m KineticMode) time.Duration {
		c := cfg
		c.Kinetic = m
		start := time.Now()
		if _, err := EstimateRanges(ctx, net, c, targets); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timeMode(KineticOn) // warm pools before timing
	rebuildTime := timeMode(KineticOff)
	kineticTime := timeMode(KineticOn)
	speedup := float64(rebuildTime) / float64(kineticTime)
	t.Logf("drift n=8192: rebuild %v, kinetic %v (%.1fx)", rebuildTime, kineticTime, speedup)
	if os.Getenv("ADHOCNET_STRICT_SPEEDUP") == "" {
		if speedup < 2 {
			t.Logf("speedup %.2fx < 2x on this run; set ADHOCNET_STRICT_SPEEDUP=1 to make this fail", speedup)
		}
		return
	}
	if speedup < 2 {
		t.Fatalf("kinetic speedup %.2fx < 2x on the drift trajectory", speedup)
	}
}
