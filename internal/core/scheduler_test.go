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
)

// sameResult compares two result values for bit-level equality while
// treating NaN as equal to itself (the paper's "no disconnected snapshots"
// sentinel is NaN, which reflect.DeepEqual would reject).
func sameResult(a, b any) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// schedulerTestNet returns a 2-D waypoint network of n nodes. Tests of the
// annulus MST path, the spatial backends or the kinetic repair pass n above
// the 2-D dense cutoff (192; graph's geoMSTDenseCutoff2D), where GeoMST
// stops running the dense Prim; the rest keep n small for CI.
func schedulerTestNet(t *testing.T, n int) Network {
	t.Helper()
	reg, err := geom.NewRegion(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	return Network{
		Nodes:  n,
		Region: reg,
		Model:  mobility.RandomWaypoint{VMin: 0.5, VMax: 8, PauseSteps: 3},
	}
}

func TestLevels(t *testing.T) {
	leakCheck(t)
	cases := []struct {
		workers, iterations, steps int
		outer, inner, spare        int
	}{
		{1, 1, 100, 1, 1, 0},
		{1, 10, 100, 1, 1, 0},
		{8, 1, 100, 1, 8, 0},
		{8, 2, 100, 2, 4, 0},
		{8, 5, 100, 5, 1, 3}, // 3 spare evaluators go to the first outer workers
		{8, 8, 100, 8, 1, 0},
		{8, 50, 100, 8, 1, 0},
		{3, 2, 100, 2, 1, 1},
		{8, 1, 1, 1, 1, 0}, // stationary: no snapshots to parallelize over
		{8, 1, 3, 1, 3, 0}, // inner capped at Steps, spare unusable
	}
	for _, c := range cases {
		cfg := RunConfig{Iterations: c.iterations, Steps: c.steps, Workers: c.workers}
		outer, inner, spare := cfg.Levels()
		if outer != c.outer || inner != c.inner || spare != c.spare {
			t.Errorf("Levels(workers=%d, iters=%d, steps=%d) = (%d, %d, %d), want (%d, %d, %d)",
				c.workers, c.iterations, c.steps, outer, inner, spare, c.outer, c.inner, c.spare)
		}
	}
}

// workerCounts returns the Workers values the invariance tests sweep. The
// value 3 forces the pipelined inner pool at Iterations=1 (inner=3) and an
// uneven split at Iterations=2 (budgets 2 and 1).
func workerCounts() []int {
	counts := []int{1, 3, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) == 3 {
		counts = counts[:2]
	}
	return counts
}

// TestEstimateRangesWorkerInvariance pins the scheduler's determinism
// contract: EstimateRanges must return bit-identical results for every
// Workers value, in both the iteration-parallel regime (Iterations=5) and the
// snapshot-parallel regime (Iterations=1).
func TestEstimateRangesWorkerInvariance(t *testing.T) {
	leakCheck(t)
	net := schedulerTestNet(t, 256)
	targets := PaperTargets()
	for _, iters := range []int{1, 5} {
		var want RangeEstimates
		for i, w := range workerCounts() {
			cfg := RunConfig{Iterations: iters, Steps: 40, Seed: 11, Workers: w}
			got, err := EstimateRanges(context.Background(), net, cfg, targets)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
				continue
			}
			if !sameResult(got, want) {
				t.Errorf("EstimateRanges(iters=%d) differs between Workers=1 and Workers=%d:\n got %+v\nwant %+v",
					iters, w, got, want)
			}
		}
	}
}

// TestEvaluateFixedRangesWorkerInvariance checks the order-sensitive outputs
// (outage-interval statistics) stay bit-identical across worker counts.
func TestEvaluateFixedRangesWorkerInvariance(t *testing.T) {
	leakCheck(t)
	net := schedulerTestNet(t, 256)
	radii := []float64{60, 130, 240}
	for _, iters := range []int{1, 5} {
		var want []FixedRangeResult
		for i, w := range workerCounts() {
			cfg := RunConfig{Iterations: iters, Steps: 40, Seed: 12, Workers: w}
			got, err := EvaluateFixedRanges(context.Background(), net, cfg, radii)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
				continue
			}
			if !sameResult(got, want) {
				t.Errorf("EvaluateFixedRanges(iters=%d) differs between Workers=1 and Workers=%d",
					iters, w)
			}
		}
	}
}

// TestDirectFixedRangeWorkerInvariance covers the explicit-graph path through
// the snapshot pool.
func TestDirectFixedRangeWorkerInvariance(t *testing.T) {
	leakCheck(t)
	net := schedulerTestNet(t, 48)
	var want FixedRangeResult
	for i, w := range workerCounts() {
		cfg := RunConfig{Iterations: 1, Steps: 30, Seed: 13, Workers: w}
		got, err := DirectFixedRange(context.Background(), net, cfg, 150)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !sameResult(got, want) {
			t.Errorf("DirectFixedRange differs between Workers=1 and Workers=%d", w)
		}
	}
}

// TestEvaluateStructureWorkerInvariance covers the float accumulators
// (summation order) through the snapshot pool.
func TestEvaluateStructureWorkerInvariance(t *testing.T) {
	leakCheck(t)
	net := schedulerTestNet(t, 32)
	var want StructureResult
	for i, w := range workerCounts() {
		cfg := RunConfig{Iterations: 2, Steps: 20, Seed: 14, Workers: w}
		got, err := EvaluateStructure(context.Background(), net, cfg, 180)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !sameResult(got, want) {
			t.Errorf("EvaluateStructure differs between Workers=1 and Workers=%d", w)
		}
	}
}

// TestStationaryCriticalSampleWorkerInvariance keeps the Steps=1 sampler on
// the determinism contract too.
func TestStationaryCriticalSampleWorkerInvariance(t *testing.T) {
	leakCheck(t)
	reg, err := geom.NewRegion(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for i, w := range workerCounts() {
		got, err := StationaryCriticalSample(context.Background(), reg, 32, 50, 15, w)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !sameResult(got, want) {
			t.Errorf("StationaryCriticalSample differs between workers=1 and workers=%d", w)
		}
	}
}

// TestSnapshotPoolManyWorkers oversubscribes the inner pool (more evaluators
// than steps in flight at a time, tiny ring reuse) to stress the buffer-ring
// recycling under -race.
func TestSnapshotPoolManyWorkers(t *testing.T) {
	leakCheck(t)
	net := schedulerTestNet(t, 24)
	for _, steps := range []int{2, 3, 17} {
		cfg1 := RunConfig{Iterations: 1, Steps: steps, Seed: 16, Workers: 1}
		cfgN := RunConfig{Iterations: 1, Steps: steps, Seed: 16, Workers: 9}
		want, err := EvaluateFixedRange(context.Background(), net, cfg1, 120)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateFixedRange(context.Background(), net, cfgN, 120)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Errorf("steps=%d: pooled result differs from sequential", steps)
		}
	}
}

// TestSchedulerSpeedup is the acceptance check of the two-level scheduler:
// with Iterations=1 the machine used to idle on one core; with the snapshot
// pool a >= 4-core machine must cut the wall clock at least in half. The
// measurement (and the bit-identity cross-check) runs on any >= 4-core
// non-race build, but the hard >= 2x assertion only fires when
// ADHOCNET_STRICT_SPEEDUP=1 is set — shared CI runners advertise cores they
// don't reliably deliver, and a wall-clock assertion there would make
// unrelated builds flaky. Run the strict form on quiet hardware:
//
//	ADHOCNET_STRICT_SPEEDUP=1 go test ./internal/core/ -run TestSchedulerSpeedup -v
func TestSchedulerSpeedup(t *testing.T) {
	leakCheck(t)
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("wall-clock assertion is meaningless under the race detector")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("needs >= 4 cores, have %d", cores)
	}
	reg, err := geom.NewRegion(1<<24, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := Network{Nodes: 4096, Region: reg, Model: mobility.PaperWaypoint(1 << 24)}
	targets := RangeTargets{TimeFractions: []float64{1, 0.9}}
	run := func(workers, steps int) (RangeEstimates, time.Duration) {
		cfg := RunConfig{Iterations: 1, Steps: steps, Seed: 17, Workers: workers}
		start := time.Now()
		est, err := EstimateRanges(context.Background(), net, cfg, targets)
		if err != nil {
			t.Fatal(err)
		}
		return est, time.Since(start)
	}
	run(cores, 8) // warm up page cache and pools
	const steps = 400
	seqEst, seqT := run(1, steps)
	poolEst, poolT := run(cores, steps)
	if !sameResult(seqEst, poolEst) {
		t.Fatalf("pooled estimates differ from sequential")
	}
	speedup := float64(seqT) / float64(poolT)
	t.Logf("n=4096 steps=%d: sequential %v, %d workers %v (%.2fx)", steps, seqT, cores, poolT, speedup)
	if os.Getenv("ADHOCNET_STRICT_SPEEDUP") == "" {
		if speedup < 2 {
			t.Logf("speedup %.2fx < 2x on this run; set ADHOCNET_STRICT_SPEEDUP=1 to make this fail", speedup)
		}
		return
	}
	if speedup < 2 {
		t.Errorf("speedup %.2fx < 2x (sequential %v, pooled %v)", speedup, seqT, poolT)
	}
}

// TestFormatLevels pins the split rendering the CLIs and the ext-sweep
// experiment show the user, including the uneven-split range form.
func TestFormatLevels(t *testing.T) {
	leakCheck(t)
	cases := []struct {
		workers, iterations int
		want                string
	}{
		{8, 2, "2x4"},
		{8, 5, "5x1-2"},
		{1, 1, "1x1"},
		{6, 4, "4x1-2"},
	}
	for _, c := range cases {
		cfg := RunConfig{Iterations: c.iterations, Steps: 10, Workers: c.workers}
		if got := cfg.FormatLevels(); got != c.want {
			t.Errorf("FormatLevels(workers=%d, iters=%d) = %q, want %q", c.workers, c.iterations, got, c.want)
		}
	}
}
