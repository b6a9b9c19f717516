package scenario

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"strings"
	"testing"
	"time"

	"adhocnet"
	"adhocnet/internal/core"
	"adhocnet/internal/report"
	"adhocnet/internal/spatial"
)

// libraryScenarios builds every file of the embedded scenarios/ directory.
func libraryScenarios(t *testing.T) map[string]*Scenario {
	t.Helper()
	files, err := fs.Glob(adhocnet.Scenarios, "scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 9 {
		t.Fatalf("embedded scenario library has only %d files", len(files))
	}
	r := Default()
	out := make(map[string]*Scenario, len(files))
	for _, file := range files {
		data, err := fs.ReadFile(adhocnet.Scenarios, file)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := r.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out[file] = sc
	}
	return out
}

// TestScenarioLibraryValidAndRunnable is the CI gate on the checked-in
// library: every file must decode, validate, build, and execute a
// 1-iteration smoke run of each output it declares.
func TestScenarioLibraryValidAndRunnable(t *testing.T) {
	for file, sc := range libraryScenarios(t) {
		if sc.Spec.Name == "" || sc.Spec.Description == "" {
			t.Errorf("%s: library scenarios must carry a name and a description", file)
		}
		cfg := sc.Config
		cfg.Iterations = 1
		if cfg.Steps > 3 {
			cfg.Steps = 3
		}
		if len(sc.Radii) > 0 {
			if _, err := core.EvaluateFixedRanges(context.Background(), sc.Network, cfg, sc.Radii); err != nil {
				t.Errorf("%s: fixed-range smoke run: %v", file, err)
			}
		}
		if len(sc.Targets.TimeFractions) > 0 || len(sc.Targets.ComponentFractions) > 0 {
			if _, err := core.EstimateRanges(context.Background(), sc.Network, cfg, sc.Targets); err != nil {
				t.Errorf("%s: range-estimation smoke run: %v", file, err)
			}
		}
	}
}

// TestScenarioRunsWorkerInvariant extends the core worker-invariance suite
// to scenario-built runs: non-uniform placements and the new mobility
// models must produce bit-identical results for every Workers value, since
// trajectory generation (where all their randomness lives) is the
// scheduler's sequential producer.
func TestScenarioRunsWorkerInvariant(t *testing.T) {
	for file, sc := range libraryScenarios(t) {
		cfg := sc.Config
		cfg.Iterations = 2
		cfg.Steps = 6
		if sc.Network.Nodes < 2 {
			continue
		}
		radius := 0.3 * sc.Network.Region.L
		targets := core.RangeTargets{TimeFractions: []float64{1, 0.5}}
		var wantFixed, wantEst string
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			fixed, err := core.EvaluateFixedRange(context.Background(), sc.Network, cfg, radius)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", file, workers, err)
			}
			est, err := core.EstimateRanges(context.Background(), sc.Network, cfg, targets)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", file, workers, err)
			}
			// Sprintf comparison keeps NaN fields (no disconnected graphs)
			// comparable; any bit difference in a float changes the text.
			gotFixed := fmt.Sprintf("%+v", fixed)
			gotEst := fmt.Sprintf("%+v", est)
			if workers == 1 {
				wantFixed, wantEst = gotFixed, gotEst
				continue
			}
			if gotFixed != wantFixed {
				t.Errorf("%s: fixed-range result depends on workers:\n1: %s\n%d: %s",
					file, wantFixed, workers, gotFixed)
			}
			if gotEst != wantEst {
				t.Errorf("%s: estimates depend on workers:\n1: %s\n%d: %s",
					file, wantEst, workers, gotEst)
			}
		}
	}
}

// TestClusteredScenariosBackendInvariant runs the two non-uniform library
// workloads that trigger the k-d tree under the auto heuristic through every
// spatial backend and every worker split, and demands bit-identical
// formatted report rows: the exact strings a scenario sweep would print.
// The backend is a performance policy, never a result policy.
func TestClusteredScenariosBackendInvariant(t *testing.T) {
	lib := libraryScenarios(t)
	targets := core.RangeTargets{TimeFractions: []float64{1, 0.9}}
	backends := []spatial.Backend{spatial.BackendGrid, spatial.BackendKDTree, spatial.BackendAuto}
	for _, file := range []string{"scenarios/clustered-sensorfield.json", "scenarios/hotspot-city.json"} {
		sc, ok := lib[file]
		if !ok {
			t.Fatalf("%s missing from embedded library", file)
		}
		cfg := sc.Config
		cfg.Iterations = 2
		cfg.Steps = 6
		radius := 0.3 * sc.Network.Region.L
		var wantRow, wantFixed string
		for _, backend := range backends {
			for _, workers := range []int{1, 3} {
				cfg.Spatial = backend
				cfg.Workers = workers
				est, err := core.EstimateRanges(context.Background(), sc.Network, cfg, targets)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", file, backend, workers, err)
				}
				fixed, err := core.EvaluateFixedRange(context.Background(), sc.Network, cfg, radius)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", file, backend, workers, err)
				}
				r100, err := est.TimeFraction(1)
				if err != nil {
					t.Fatal(err)
				}
				r90, err := est.TimeFraction(0.9)
				if err != nil {
					t.Fatal(err)
				}
				// The same cells extScenariosExperiment prints for this row,
				// minus the wall-clock column.
				row := strings.Join([]string{
					sc.Spec.Name,
					sc.Network.Model.Name(),
					sc.PlacementName(),
					report.FormatFloat(r100.Mean),
					report.FormatFloat(r90.Mean),
				}, " | ")
				gotFixed := fmt.Sprintf("%+v", fixed)
				if wantRow == "" {
					wantRow, wantFixed = row, gotFixed
					continue
				}
				if row != wantRow {
					t.Errorf("%s: report row depends on backend/workers (%s, %d):\nwant %s\ngot  %s",
						file, backend, workers, wantRow, row)
				}
				if gotFixed != wantFixed {
					t.Errorf("%s: fixed-range result depends on backend/workers (%s, %d)",
						file, backend, workers)
				}
			}
		}
	}
}

// TestOverflowingRegionReturns runs decoded specs whose region is so large
// that the nodes' squared distances overflow to +Inf, with n on both sides
// of the dense MST cutoff: time targets take the critical-range-only
// snapshot path, component targets the profile path. Each estimate must
// return a finite range, and full connectivity one whose square overflows.
func TestOverflowingRegionReturns(t *testing.T) {
	for _, nodes := range []int{4, 300} {
		for _, targets := range []string{`"time": [1, 0]`, `"component": [0.5]`} {
			spec := fmt.Sprintf(`{
  "name": "overflow", "region": {"l": 1e160, "dim": 2}, "nodes": %d,
  "mobility": {"kind": "stationary"},
  "run": {"iterations": 1, "steps": 1, "workers": 1},
  "targets": {%s}
}`, nodes, targets)
			what := fmt.Sprintf("%d nodes, %s", nodes, targets)
			sc, err := Default().Parse([]byte(spec))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			done := make(chan error, 1)
			var est core.RangeEstimates
			go func() {
				var err error
				est, err = core.EstimateRanges(context.Background(), sc.Network, sc.Config, sc.Targets)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for _, e := range append(est.Time, est.Component...) {
					r := e.PerIteration[0]
					if !(r > 0) || math.IsInf(r, 0) || (e.Target == 1 && !math.IsInf(r*r, 1)) {
						t.Errorf("%s: target %v estimated at %v", what, e.Target, r)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: EstimateRanges did not return within 10s", what)
			}
		}
	}
}
