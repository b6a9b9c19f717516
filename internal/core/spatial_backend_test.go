package core

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/spatial"
)

// clusteredNet is an islands placement: a handful of tight clusters in a
// large region — the shape the auto heuristic routes to the k-d tree, and
// the one where a backend bug would show up as a different profile.
func clusteredNet(t *testing.T, n, clusters int) Network {
	t.Helper()
	reg, err := geom.NewRegion(2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	return Network{
		Nodes:     n,
		Region:    reg,
		Model:     mobility.RandomWaypoint{VMin: 0.5, VMax: 8, PauseSteps: 3},
		Placement: mobility.Clusters{Clusters: clusters, Radius: 40},
	}
}

// TestCoreResultsIdenticalAcrossSpatialBackends cross-validates every core
// entry point over backend x worker-count: the spatial backend is a pure
// performance knob, so all results must be bit-identical to the grid at
// Workers = 1, NaN sentinels included.
func TestCoreResultsIdenticalAcrossSpatialBackends(t *testing.T) {
	leakCheck(t)
	ctx := context.Background()
	nets := map[string]Network{
		"clustered": clusteredNet(t, 256, 4),
		"uniform":   schedulerTestNet(t, 256),
	}
	targets := RangeTargets{TimeFractions: []float64{1, 0.9}}
	backends := []spatial.Backend{spatial.BackendAuto, spatial.BackendGrid, spatial.BackendKDTree}
	for netName, net := range nets {
		base := RunConfig{Iterations: 3, Steps: 12, Seed: 41, Workers: 1, Spatial: spatial.BackendGrid}

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
			for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				cfg := base
				cfg.Spatial = backend
				cfg.Workers = workers
				name := netName + "/" + backend.String()

				est, err := EstimateRanges(ctx, net, cfg, targets)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(est, wantEst) {
					t.Fatalf("%s workers=%d: EstimateRanges differs from grid", name, workers)
				}
				fixed, err := EvaluateFixedRanges(ctx, net, cfg, []float64{120, 700})
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(fixed, wantFixed) {
					t.Fatalf("%s workers=%d: EvaluateFixedRanges differs from grid", name, workers)
				}
				direct, err := DirectFixedRange(ctx, net, cfg, 400)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(direct, wantDirect) {
					t.Fatalf("%s workers=%d: DirectFixedRange differs from grid", name, workers)
				}
				structure, err := EvaluateStructure(ctx, net, cfg, 400)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(structure, wantStruct) {
					t.Fatalf("%s workers=%d: EvaluateStructure differs from grid", name, workers)
				}
			}
		}
	}
}

// TestRunConfigValidateSpatial rejects out-of-range backend values and
// accepts every named one.
func TestRunConfigValidateSpatial(t *testing.T) {
	for _, b := range []spatial.Backend{spatial.BackendAuto, spatial.BackendGrid, spatial.BackendKDTree} {
		cfg := RunConfig{Iterations: 1, Steps: 1, Spatial: b}
		if err := cfg.Validate(); err != nil {
			t.Errorf("backend %v rejected: %v", b, err)
		}
	}
	cfg := RunConfig{Iterations: 1, Steps: 1, Spatial: spatial.Backend(9)}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range spatial backend accepted")
	}
}

// TestClusteredSpeedupTreeVsGrid measures the end-to-end win the k-d tree
// buys on a large islands placement, on the path where the grid's quadratic
// trap lives: the MST rounds behind EstimateRanges, whose bridging annuli
// force grid cells the size of the inter-island gaps. Wall-clock assertions
// are flaky on shared runners, so the hard bound applies only when
// ADHOCNET_STRICT_SPEEDUP=1 is set; the measured ratio is always logged.
func TestClusteredSpeedupTreeVsGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock measurement; meaningless under -race")
	}
	ctx := context.Background()
	net := clusteredNet(t, 2048, 8)
	net.Model = mobility.Stationary{}
	cfg := RunConfig{Iterations: 2, Steps: 4, Seed: 7, Workers: 1}
	targets := RangeTargets{TimeFractions: []float64{1}}

	timeBackend := func(b spatial.Backend) time.Duration {
		c := cfg
		c.Spatial = b
		start := time.Now()
		if _, err := EstimateRanges(ctx, net, c, targets); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timeBackend(spatial.BackendKDTree) // warm pools before timing
	gridTime := timeBackend(spatial.BackendGrid)
	treeTime := timeBackend(spatial.BackendKDTree)
	speedup := float64(gridTime) / float64(treeTime)
	t.Logf("clustered n=2048: grid %v, kdtree %v (%.1fx)", gridTime, treeTime, speedup)
	if os.Getenv("ADHOCNET_STRICT_SPEEDUP") == "" {
		if speedup < 2 {
			t.Logf("speedup %.2fx < 2x on this run; set ADHOCNET_STRICT_SPEEDUP=1 to make this fail", speedup)
		}
		return
	}
	if speedup < 2 {
		t.Fatalf("k-d tree speedup %.2fx < 2x on clustered placement", speedup)
	}
}
