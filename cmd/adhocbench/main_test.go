package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adhocnet/internal/core"
	"adhocnet/internal/experiments"
	"adhocnet/internal/obs"
	"adhocnet/internal/report"
	"adhocnet/internal/spatial"
)

const benchPath = "../../BENCHMARK.json"

// TestMain lets the test binary serve as the workload child the harness
// spawns from os.Executable.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func smokeJob(t *testing.T, w *workload) *job {
	t.Helper()
	j, err := prepare(w, -1, true)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestSmoke runs every workload through the full harness, children and
// replay included, at a few steps each, and checks the results cover
// exactly what BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	if code := parentMain([]string{"-smoke", "-out", out, "-benchmark", benchPath}, &stdout); code != 0 {
		t.Fatalf("exit code %d:\n%s", code, stdout.String())
	}
	def, err := loadBenchDef(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) || len(res.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads and the run measured %d, the harness defines %d",
			len(def.Workloads), len(res.Workloads), len(workloads))
	}
	for i, r := range res.Workloads {
		if def.Workloads[i].Name != workloads[i].name || r.Workload != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, results %q, harness %q", i, def.Workloads[i].Name, r.Workload, workloads[i].name)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d reps failed: %v", r.Workload, r.Failed, r.Attempted, r.Errors)
		}
		for _, d := range append(def.EndToEnd, failedFrac) {
			if s, ok := r.EndToEnd[d.Name]; !ok || s.N == 0 {
				t.Errorf("%s: end-to-end metric %s missing", r.Workload, d.Name)
			}
		}
		for _, d := range def.PerLayer {
			if _, ok := r.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", r.Workload, d.Name)
			}
		}
		if len(r.PerLayer) != len(def.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", r.Workload, len(r.PerLayer), len(def.PerLayer))
		}
		if _, err := os.Stat(filepath.Join(out, "traces", r.Workload+".trace.json")); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
	}
}

// TestDigestIdenticalAcrossKnobs pins what the recorded digests rely on:
// every workload's result is bit-identical across worker counts, kinetic
// modes and spatial backends.
func TestDigestIdenticalAcrossKnobs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			base := smokeJob(t, w)
			backends := []spatial.Backend{spatial.BackendGrid, spatial.BackendKDTree}
			if w.kind == kindFigs {
				backends = backends[:1] // experiments.Preset has no spatial knob
			}
			want := ""
			for _, workers := range []int{1, 2} {
				for _, kin := range []core.KineticMode{core.KineticOn, core.KineticOff} {
					for _, sp := range backends {
						j := *base
						if w.kind == kindFigs {
							j.preset.Workers, j.preset.Kinetic = workers, kin
						} else {
							sc := *base.sc
							sc.Config.Workers, sc.Config.Kinetic, sc.Config.Spatial = workers, kin, sp
							j.sc = &sc
						}
						got, err := j.run(context.Background(), nil)
						if err != nil {
							t.Fatal(err)
						}
						if want == "" {
							want = got
						} else if got != want {
							t.Errorf("workers %d, kinetic %v, spatial %v: digest %s, want %s", workers, kin, sp, got, want)
						}
					}
				}
			}
		})
	}
}

// TestReplayFidelity checks the replay re-drives the run's trajectories: the
// largest critical radius of each replayed iteration equals the run's r_100
// for that iteration. For paper-figs it also checks the seed mirror against
// the rendered figure.
func TestReplayFidelity(t *testing.T) {
	ctx := context.Background()
	for i := range workloads {
		w := &workloads[i]
		if w.kind == kindStructure {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			j := smokeJob(t, w)
			rr, err := replay(j)
			if err != nil {
				t.Fatal(err)
			}
			figs := map[string]*experiments.Result{}
			for k, tr := range j.trajectories() {
				est, err := core.EstimateRanges(ctx, tr.net, tr.cfg, core.RangeTargets{TimeFractions: []float64{1}})
				if err != nil {
					t.Fatal(err)
				}
				for it := 0; it < tr.replay; it++ {
					if got, want := rr.iterMax[k][it], est.Time[0].PerIteration[it]; got != want {
						t.Errorf("trajectory %d iteration %d: replay max critical %v, run r_100 %v", k, it, got, want)
					}
				}
				if w.kind != kindFigs {
					continue
				}
				p := j.preset
				fig := figModels[k/len(p.Sides)].id
				side := k % len(p.Sides)
				if figs[fig] == nil {
					e, err := experiments.ByID(fig)
					if err != nil {
						t.Fatal(err)
					}
					if figs[fig], err = e.Run(p); err != nil {
						t.Fatal(err)
					}
				}
				rs, err := core.RStationary(ctx, tr.net.Region, tr.net.Nodes, p.StationarySamples,
					figSeed(p.Seed, fig+"/stationary"), p.Workers, p.StationaryQuantile)
				if err != nil {
					t.Fatal(err)
				}
				got := figs[fig].Tables[0].Rows[side][3]
				if want := report.FormatFloat(est.Time[0].Mean / rs); got != want {
					t.Errorf("%s side %v: figure r100/rs %s, mirrored seeds give %s", fig, p.Sides[side], got, want)
				}
			}
		})
	}
}

// TestReplayCountsMatchObs checks the replay performs the run's kinetic and
// backend decisions: its workspace counters equal the traced run's.
func TestReplayCountsMatchObs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			j := smokeJob(t, w)
			reg := obs.NewRegistry()
			if _, err := j.run(context.Background(), reg); err != nil {
				t.Fatal(err)
			}
			if err := checkEvalCount(reg, j.snapshots()); err != nil {
				t.Error(err)
			}
			rr, err := replay(j)
			if err != nil {
				t.Fatal(err)
			}
			counters := reg.Snapshot().Counters
			st := rr.stats
			for name, want := range map[string]uint64{
				"adhocnet_kinetic_mst_repairs_total":                  st.MSTRepairs,
				"adhocnet_kinetic_mst_rebuilds_total":                 st.MSTRebuilds,
				"adhocnet_kinetic_mst_dirty_fallbacks_total":          st.MSTDirtyFallbacks,
				"adhocnet_kinetic_graph_repairs_total":                st.GraphRepairs,
				"adhocnet_kinetic_graph_rebuilds_total":               st.GraphRebuilds,
				`adhocnet_spatial_auto_picks_total{backend="grid"}`:   st.GridPicks,
				`adhocnet_spatial_auto_picks_total{backend="kdtree"}`: st.TreePicks,
			} {
				if got := counters[name]; got != want {
					t.Errorf("%s: traced run %d, replay %d", name, got, want)
				}
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := stat{Median: 10, Q1: 9.9, Q3: 10.1, Better: "lower", Bound: 0.1}
	higher := lower
	higher.Better = "higher"
	zero := stat{Better: "lower"}
	for _, tc := range []struct {
		a, b stat
		want string
	}{
		{lower, stat{Median: 10.5}, "within bound"},
		{lower, stat{Median: 11.5}, "worse"},
		{lower, stat{Median: 8.5}, "better"},
		{lower, stat{Median: 10, Q1: 8, Q3: 12}, "unresolved"},
		{higher, stat{Median: 8.5}, "worse"},
		{higher, stat{Median: 11.5}, "better"},
		{zero, stat{}, "within bound"},
		{zero, stat{Median: 0.2}, "worse"},
	} {
		if got := verdict(tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%+v, %+v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestQuartiles pins the exclusive method, the one Python's
// statistics.quantiles uses by default.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestCompareFlagsRegression runs -compare on two synthetic results files.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, median float64) string {
		r := results{Schema: resultsSchema, Workloads: []*row{{
			Workload: "w",
			EndToEnd: map[string]stat{"run_s": {Median: median, Q1: median, Q3: median, N: 5, Unit: "s", Better: "lower", Bound: 0.1}},
		}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 2), write("same.json", 2.1), write("slow.json", 3)
	for _, tc := range []struct {
		b    string
		code int
	}{{same, 0}, {slow, 1}} {
		var out bytes.Buffer
		if code := parentMain([]string{"-compare", a, tc.b}, &out); code != tc.code {
			t.Errorf("compare %s: exit %d, want %d\n%s", tc.b, code, tc.code, out.String())
		}
		if !bytes.Contains(out.Bytes(), []byte("run_s")) {
			t.Errorf("compare output lacks the metric:\n%s", out.String())
		}
	}
}
