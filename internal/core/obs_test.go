package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"adhocnet/internal/obs"
	"adhocnet/internal/spatial"
)

// TestObsDoesNotPerturbResults is the observability determinism matrix: for
// every kinetic mode x spatial backend x worker count, results must be
// bit-identical whether RunConfig.Obs is absent (nil), a disabled registry,
// or a live one. This is the contract that lets -obs be attached to any run
// without invalidating it.
func TestObsDoesNotPerturbResults(t *testing.T) {
	leakCheck(t)
	ctx := context.Background()
	net := driftNet(t, 256)
	targets := RangeTargets{TimeFractions: []float64{1, 0.9}}

	for _, mode := range []KineticMode{KineticAuto, KineticOn, KineticOff} {
		for _, backend := range []spatial.Backend{spatial.BackendGrid, spatial.BackendKDTree} {
			for _, workers := range []int{1, 3} {
				cfg := RunConfig{Iterations: 3, Steps: 6, Seed: 23, Workers: workers,
					Spatial: backend, Kinetic: mode}
				name := mode.String() + "/" + backend.String()

				wantEst, err := EstimateRanges(ctx, net, cfg, targets)
				if err != nil {
					t.Fatal(err)
				}
				wantFixed, err := EvaluateFixedRanges(ctx, net, cfg, []float64{120, 700})
				if err != nil {
					t.Fatal(err)
				}

				for _, reg := range []*obs.Registry{obs.NewDisabled(), obs.NewRegistry()} {
					c := cfg
					c.Obs = reg
					est, err := EstimateRanges(ctx, net, c, targets)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(est, wantEst) {
						t.Fatalf("%s workers=%d enabled=%v: EstimateRanges differs with observability attached",
							name, workers, reg.Enabled())
					}
					fixed, err := EvaluateFixedRanges(ctx, net, c, []float64{120, 700})
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(fixed, wantFixed) {
						t.Fatalf("%s workers=%d enabled=%v: EvaluateFixedRanges differs with observability attached",
							name, workers, reg.Enabled())
					}
					if reg.Enabled() {
						// Two runs of 3 iterations each flowed through this
						// registry; the iteration counter must say so.
						if got := reg.Counter(obs.MetricIterationsTotal).Value(); got != 6 {
							t.Fatalf("%s workers=%d: iterations counter = %d, want 6", name, workers, got)
						}
					}
				}
			}
		}
	}
}

// TestEstimateRangesTimeOnlyPath pins the critical-range-only snapshot path
// to the profile path: with time targets alone EstimateRanges skips the
// profiles, and its time estimates must be bit-identical to those of the
// same run with PaperTargets, with the same kinetic MST and backend-pick
// counters in a live registry. 64 nodes take the dense Prim, 256 the
// annulus rounds and, armed, the kinetic repair.
func TestEstimateRangesTimeOnlyPath(t *testing.T) {
	ctx := context.Background()
	timeOnly := RangeTargets{TimeFractions: PaperTargets().TimeFractions}
	run := func(net Network, cfg RunConfig, targets RangeTargets) ([]Estimate, map[string]uint64) {
		t.Helper()
		cfg.Obs = obs.NewRegistry()
		est, err := EstimateRanges(ctx, net, cfg, targets)
		if err != nil {
			t.Fatal(err)
		}
		counters := map[string]uint64{}
		for name, v := range cfg.Obs.Snapshot().Counters {
			if strings.HasPrefix(name, "adhocnet_kinetic_mst_") || strings.HasPrefix(name, "adhocnet_spatial_auto_picks_total") {
				counters[name] = v
			}
		}
		return est.Time, counters
	}
	for _, n := range []int{64, 256} {
		net := driftNet(t, n)
		for _, workers := range []int{1, 2} {
			for _, mode := range []KineticMode{KineticOff, KineticOn, KineticAuto} {
				name := fmt.Sprintf("n=%d workers=%d kinetic=%v", n, workers, mode)
				cfg := RunConfig{Iterations: 3, Steps: 12, Seed: 19, Workers: workers, Kinetic: mode}
				want, wantCounters := run(net, cfg, PaperTargets())
				got, gotCounters := run(net, cfg, timeOnly)
				for i := range want {
					for j, w := range want[i].PerIteration {
						if g := got[i].PerIteration[j]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s: time target %v iteration %d: %v, with component targets %v",
								name, want[i].Target, j, g, w)
						}
					}
				}
				if !maps.Equal(gotCounters, wantCounters) {
					t.Fatalf("%s: counters differ:\ntime only %v\npaper     %v", name, gotCounters, wantCounters)
				}
				if n == 256 && mode == KineticOn && wantCounters["adhocnet_kinetic_mst_repairs_total"] == 0 {
					t.Fatalf("%s: no repairs, the kinetic path went unchecked", name)
				}
			}
		}
	}
}

// TestObsCountersTrackKineticPipeline pins that an enabled registry actually
// collects the kinetic pipeline's repair counters on its home regime (and
// that a disabled registry collects nothing), and that an armed structure
// run builds its communication graph once per snapshot: one backend pick
// each, whatever the kinetic mode.
func TestObsCountersTrackKineticPipeline(t *testing.T) {
	ctx := context.Background()
	net := driftNet(t, 256)
	reg := obs.NewRegistry()
	cfg := RunConfig{Iterations: 2, Steps: 10, Seed: 5, Workers: 1,
		Kinetic: KineticOn, Obs: reg}
	if _, err := EstimateRanges(ctx, net, cfg, RangeTargets{TimeFractions: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["adhocnet_kinetic_mst_repairs_total"]; got == 0 {
		t.Error("no MST repairs counted on the drift trajectory")
	}
	if got := snap.Counters["adhocnet_kinetic_mst_rebuilds_total"]; got != 2 {
		t.Errorf("MST rebuilds = %d, want 2 (one prime per iteration)", got)
	}
	if got := snap.Counters["adhocnet_kinetic_moved_points_total"]; got == 0 {
		t.Error("no moved points counted")
	}
	if got := snap.Counters[`adhocnet_spatial_updates_total{backend="kdtree"}`]; got == 0 {
		t.Error("no k-d tree updates counted")
	}
	if got := snap.Counters["adhocnet_scheduler_sequential_trajectories_total"]; got != 2 {
		t.Errorf("sequential trajectories = %d, want 2", got)
	}

	reg = obs.NewRegistry()
	cfg.Obs = reg
	if _, err := EvaluateStructure(ctx, net, cfg, 400); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	picks := snap.Counters[`adhocnet_spatial_auto_picks_total{backend="grid"}`] +
		snap.Counters[`adhocnet_spatial_auto_picks_total{backend="kdtree"}`]
	if picks != 20 {
		t.Errorf("structure run: %d backend picks, want 20 (one per snapshot)", picks)
	}
}

// TestObsCountersTrackKineticBlocks accounts for the kinetic snapshot pool's
// choices: every snapshot is either repaired or rebuilt, the only rebuilds
// on a drift trajectory are the block starts' re-primes (one per block, and
// one ring-occupancy sample per block hand-off), and the trajectory counts
// as pooled. On the all-movers trajectory the delta-log bound ends every
// block after one delta step, and every snapshot rebuilds.
func TestObsCountersTrackKineticBlocks(t *testing.T) {
	leakCheck(t)
	const steps = 100
	const fullBlocks = (steps + kineticBlockLen - 1) / kineticBlockLen
	for _, c := range []struct {
		name             string
		net              Network
		blocks, rebuilds uint64
	}{
		{"drift", driftNet(t, 256), fullBlocks, fullBlocks},
		{"all-movers", allMoversNet(t, 256), steps / 2, steps},
	} {
		reg := obs.NewRegistry()
		cfg := RunConfig{Iterations: 1, Steps: steps, Seed: 5, Workers: 2,
			Kinetic: KineticOn, Obs: reg}
		if _, err := EstimateRanges(context.Background(), c.net, cfg,
			RangeTargets{TimeFractions: []float64{1}}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		repairs := snap.Counters["adhocnet_kinetic_mst_repairs_total"]
		rebuilds := snap.Counters["adhocnet_kinetic_mst_rebuilds_total"]
		if repairs+rebuilds != steps {
			t.Errorf("%s: MST repairs %d + rebuilds %d != %d snapshots", c.name, repairs, rebuilds, steps)
		}
		if rebuilds != c.rebuilds {
			t.Errorf("%s: MST rebuilds = %d, want %d", c.name, rebuilds, c.rebuilds)
		}
		if got := snap.Histograms["adhocnet_scheduler_ring_occupancy"].Count; got != c.blocks {
			t.Errorf("%s: %d blocks handed off, want %d", c.name, got, c.blocks)
		}
		if got := snap.Counters["adhocnet_scheduler_pooled_trajectories_total"]; got != 1 {
			t.Errorf("%s: pooled trajectories = %d, want 1", c.name, got)
		}
		if got := snap.Counters["adhocnet_scheduler_sequential_trajectories_total"]; got != 0 {
			t.Errorf("%s: sequential trajectories = %d, want 0", c.name, got)
		}
	}
}

// TestObsCountersTrackSnapshotPool pins the pooled path's counters: with one
// iteration and many workers the inner level engages, so the pooled
// trajectory counter and the ring-occupancy histogram must fill.
func TestObsCountersTrackSnapshotPool(t *testing.T) {
	ctx := context.Background()
	net := schedulerTestNet(t, 64)
	reg := obs.NewRegistry()
	cfg := RunConfig{Iterations: 1, Steps: 16, Seed: 9, Workers: 4,
		Kinetic: KineticOff, Obs: reg}
	if _, err := EstimateRanges(ctx, net, cfg, RangeTargets{TimeFractions: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["adhocnet_scheduler_pooled_trajectories_total"]; got != 1 {
		t.Errorf("pooled trajectories = %d, want 1", got)
	}
	h, ok := snap.Histograms["adhocnet_scheduler_ring_occupancy"]
	if !ok || h.Count != 16 {
		t.Errorf("ring occupancy samples = %+v, want one per step (16)", h)
	}
	if h, ok := snap.Histograms["adhocnet_scheduler_reduction_lag"]; !ok || h.Count != 16 {
		t.Errorf("reduction lag samples = %+v, want one per step (16)", h)
	}
}

// TestObsOverheadDisabledRegistry measures the cost of shipping the
// instrumentation in its disabled state (RunConfig.Obs set to a disabled
// registry) against the absent state (Obs nil). The contract is near-zero
// overhead: nil-handle methods reduce to a test-and-return. Wall-clock
// assertions are flaky on shared runners, so the hard <= 2% bound applies
// only when ADHOCNET_STRICT_SPEEDUP=1 is set; the ratio is always logged
// (CI records it in BENCH_obs.json).
func TestObsOverheadDisabledRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock measurement; meaningless under -race")
	}
	ctx := context.Background()
	net := driftNet(t, 4096)
	targets := RangeTargets{TimeFractions: []float64{1}}
	base := RunConfig{Iterations: 1, Steps: 24, Seed: 7, Workers: 1, Kinetic: KineticOn}

	timeWith := func(reg *obs.Registry) time.Duration {
		c := base
		c.Obs = reg
		start := time.Now()
		if _, err := EstimateRanges(ctx, net, c, targets); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timeWith(nil) // warm pools before timing
	// Interleave the two states and keep the minimum of each: the minimum is
	// the least noise-contaminated estimate of the true cost, and
	// interleaving cancels slow thermal/cache drift between the states.
	disabledReg := obs.NewDisabled()
	absent := time.Duration(1<<63 - 1)
	disabled := absent
	for i := 0; i < 8; i++ {
		if d := timeWith(nil); d < absent {
			absent = d
		}
		if d := timeWith(disabledReg); d < disabled {
			disabled = d
		}
	}
	ratio := float64(disabled) / float64(absent)
	t.Logf("drift n=4096: absent %v, disabled registry %v (%.4fx)", absent, disabled, ratio)
	if os.Getenv("ADHOCNET_STRICT_SPEEDUP") == "" {
		if ratio > 1.02 {
			t.Logf("disabled-registry overhead %.2f%% > 2%% on this run; set ADHOCNET_STRICT_SPEEDUP=1 to make this fail", 100*(ratio-1))
		}
		return
	}
	if ratio > 1.02 {
		t.Fatalf("disabled-registry overhead %.2f%% > 2%%", 100*(ratio-1))
	}
}
