package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adhocnet/internal/core"
	"adhocnet/internal/obs"
	"adhocnet/internal/scenario"
)

// resumeUntilDone drives an interruptible run to completion: it retries with
// escalating -timeout values (so the first attempts are guaranteed to be cut
// short while later ones are guaranteed to finish) and -checkpoint/-resume
// pointed at the same base path. It returns the final stdout and how many
// attempts were interrupted before completion.
func resumeUntilDone(t *testing.T, refArgs []string, base string) (string, int) {
	t.Helper()
	var got strings.Builder
	interrupted := 0
	timeout := 10 * time.Millisecond
	for attempt := 0; attempt < 20; attempt++ {
		got.Reset()
		args := append(append([]string{}, refArgs...),
			"-checkpoint", base, "-resume", base,
			"-timeout", fmt.Sprint(timeout))
		err := run(context.Background(), args, &got, io.Discard)
		switch {
		case err == nil:
			return got.String(), interrupted
		case errors.Is(err, core.ErrDeadlineExceeded):
			interrupted++
			timeout *= 2
		default:
			t.Fatal(err)
		}
	}
	t.Fatal("run never completed within 20 escalating-timeout attempts")
	return "", 0
}

func TestRunProducesPaperOutputs(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-l", "512", "-n", "24", "-r", "150",
		"-iters", "3", "-steps", "40", "-model", "waypoint", "-per-iter",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"connected graphs:",
		"avg largest (disc.):",
		"min largest component:",
		"per-iteration results:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Three per-iteration rows.
	if got := strings.Count(text, "\n    "); got < 3 {
		t.Errorf("expected 3 per-iteration rows, found %d:\n%s", got, text)
	}
}

func TestRunCurve(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-l", "256", "-n", "12", "-r", "100",
		"-iters", "2", "-steps", "20", "-curve",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "range-vs-uptime curve") {
		t.Fatalf("curve header missing:\n%s", text)
	}
	// One row per fraction: 0..100%.
	for _, want := range []string{"0%", "50%", "100%"} {
		if !strings.Contains(text, want) {
			t.Errorf("curve missing %q row:\n%s", want, text)
		}
	}
}

func TestRunAllModels(t *testing.T) {
	for _, model := range []string{"stationary", "waypoint", "drunkard", "direction", "gaussmarkov", "rpgm"} {
		var out strings.Builder
		err := run(context.Background(), []string{
			"-l", "256", "-n", "10", "-r", "100",
			"-iters", "2", "-steps", "10", "-model", model,
		}, &out, io.Discard)
		if err != nil {
			t.Errorf("model %s: %v", model, err)
		}
	}
}

func TestRunAllPlacements(t *testing.T) {
	for _, placement := range []string{"uniform", "hotspots", "clusters", "edge"} {
		var out strings.Builder
		err := run(context.Background(), []string{
			"-l", "256", "-n", "10", "-r", "100",
			"-iters", "2", "-steps", "10", "-placement", placement,
		}, &out, io.Discard)
		if err != nil {
			t.Errorf("placement %s: %v", placement, err)
		}
	}
}

// TestRunEveryCheckedInScenario drives every file of the scenario library
// through the CLI end-to-end (at overridden 1-iteration effort so the suite
// stays fast; the overrides exercise the explicit-flag override path too).
func TestRunEveryCheckedInScenario(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checked-in scenarios found")
	}
	for _, f := range files {
		var out strings.Builder
		if err := run(context.Background(), []string{"-scenario", f, "-iters", "1", "-steps", "2"}, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v\n%s", f, err, out.String())
		}
		if !strings.Contains(out.String(), "scenario: ") {
			t.Errorf("%s: missing scenario header:\n%s", f, out.String())
		}
	}
}

func TestRunScenarioOutputs(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-scenario", filepath.Join("..", "..", "scenarios", "mixed-stationary-fleet.json"),
		"-iters", "2", "-steps", "10", "-per-iter",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"scenario: mixed-stationary-fleet",
		"--- r = 150 ---",
		"connected graphs:",
		"per-iteration results:",
		"range estimates",
		"r_time(100%)",
		"r_comp( 90%)",
		"2 iterations x 10 steps",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunScenarioErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","region":{"l":10},"nodes":4,`+
		`"mobility":{"kind":"teleport"},"run":{"iterations":1,"steps":1},"radii":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"missing file": {"-scenario", filepath.Join(dir, "nope.json")},
		"unknown kind": {"-scenario", bad},
		"bad override": {"-scenario", filepath.Join("..", "..", "scenarios", "hotspot-city.json"), "-iters", "-1"},
		// Network flags are defined by the file; an explicit one that
		// would be silently shadowed must be rejected, not ignored.
		"shadowed -n":     {"-scenario", filepath.Join("..", "..", "scenarios", "hotspot-city.json"), "-n", "500"},
		"shadowed -model": {"-scenario", filepath.Join("..", "..", "scenarios", "hotspot-city.json"), "-model", "drunkard"},
	}
	for name, args := range cases {
		var out strings.Builder
		if err := run(context.Background(), args, &out, io.Discard); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestRunStationaryFullRange(t *testing.T) {
	// At the region diameter everything is connected; the average-largest
	// line must show the no-disconnection marker.
	var out strings.Builder
	err := run(context.Background(), []string{
		"-l", "100", "-n", "8", "-r", "150", "-d", "2",
		"-iters", "2", "-steps", "5", "-model", "stationary",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "100.00%") {
		t.Errorf("diameter range should be fully connected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no disconnected graphs") {
		t.Errorf("expected no-disconnection marker:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"missing r":     {"-l", "100", "-n", "5"},
		"negative r":    {"-r", "-5"},
		"unknown model": {"-r", "10", "-model", "teleport"},
		"bad dimension": {"-r", "10", "-d", "7"},
		"bad pause":     {"-r", "10", "-tpause", "-3"},
	}
	for name, args := range cases {
		var out strings.Builder
		if err := run(context.Background(), args, &out, io.Discard); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestRunOneDimensional(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-l", "1000", "-n", "50", "-r", "120", "-d", "1",
		"-iters", "2", "-steps", "5", "-model", "drunkard",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[0,1000]^1") {
		t.Errorf("1-D header missing:\n%s", out.String())
	}
}

// --- Run-lifecycle tests: exit codes, -timeout, -checkpoint/-resume ---

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"-l", "100", "-n", "8", "-r", "40", "-iters", "1", "-steps", "2"}, 0},
		{"unknown flag", []string{"-bogus"}, 2},
		{"missing r", []string{"-l", "100"}, 2},
		{"negative r", []string{"-r", "-5"}, 2},
		{"shadowed flag", []string{"-scenario", filepath.Join("..", "..", "scenarios", "hotspot-city.json"), "-n", "9"}, 2},
		{"unknown model", []string{"-r", "10", "-model", "teleport"}, 1},
		{"missing scenario", []string{"-scenario", "nope.json"}, 1},
	}
	for _, tc := range cases {
		var out, errOut strings.Builder
		if got := cliMain(tc.args, &out, &errOut); got != tc.want {
			t.Errorf("%s: exit code %d, want %d (stderr: %s)", tc.name, got, tc.want, errOut.String())
		}
	}
}

func TestTimeoutExitsThreeAndWritesCheckpoint(t *testing.T) {
	base := filepath.Join(t.TempDir(), "ck")
	var out, errOut strings.Builder
	code := cliMain([]string{
		"-l", "4096", "-n", "512", "-r", "400",
		"-iters", "50", "-steps", "400", "-workers", "2",
		"-timeout", "100ms", "-checkpoint", base,
	}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit code %d, want 3 (stderr: %s)", code, errOut.String())
	}
	if _, err := os.Stat(base + ".fixed"); err != nil {
		t.Fatalf("no checkpoint written on timeout: %v", err)
	}
	if !strings.Contains(errOut.String(), "checkpoint written") {
		t.Errorf("stderr does not mention the checkpoint:\n%s", errOut.String())
	}
}

// TestInterruptResumeCLI interrupts a flag-mode run with a tiny -timeout,
// resumes it repeatedly until it completes, and requires the final stdout to
// be byte-identical to an uninterrupted run's. The workload is sized to take
// well over the initial 10ms timeout, so at least the first attempt is
// guaranteed to be interrupted and the resume path genuinely exercised.
func TestInterruptResumeCLI(t *testing.T) {
	refArgs := []string{
		"-l", "1024", "-n", "128", "-r", "250",
		"-iters", "8", "-steps", "200", "-workers", "2", "-per-iter",
	}
	var want strings.Builder
	if err := run(context.Background(), refArgs, &want, io.Discard); err != nil {
		t.Fatal(err)
	}

	got, interrupted := resumeUntilDone(t, refArgs, filepath.Join(t.TempDir(), "ck"))
	if interrupted == 0 {
		t.Error("no attempt was interrupted; the resume path was not exercised")
	}
	if got != want.String() {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
			got, want.String())
	}
}

// TestInterruptResumeScenarioCLI is the same contract for scenario mode,
// which has two checkpoint phases (fixed + ranges).
func TestInterruptResumeScenarioCLI(t *testing.T) {
	scen := filepath.Join("..", "..", "scenarios", "mixed-stationary-fleet.json")
	refArgs := []string{"-scenario", scen, "-iters", "8", "-steps", "150", "-workers", "2"}
	var want strings.Builder
	if err := run(context.Background(), refArgs, &want, io.Discard); err != nil {
		t.Fatal(err)
	}

	got, interrupted := resumeUntilDone(t, refArgs, filepath.Join(t.TempDir(), "ck"))
	if interrupted == 0 {
		t.Error("no attempt was interrupted; the resume path was not exercised")
	}
	if got != want.String() {
		t.Errorf("resumed scenario stdout differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
			got, want.String())
	}
}

func TestResumeRejectsChangedWorkload(t *testing.T) {
	// A scenario whose radius is changed by rewriting the file, not by a flag.
	dir := t.TempDir()
	scen := filepath.Join(dir, "fleet.json")
	changedRadii := filepath.Join(dir, "fleet-radii.json")
	spec := `{"name":"fleet","region":{"l":256},"nodes":16,"mobility":{"kind":"waypoint"},` +
		`"run":{"iterations":3,"steps":5},"radii":[%v],"targets":{"time":[1]}}`
	if err := os.WriteFile(scen, []byte(fmt.Sprintf(spec, 100)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(changedRadii, []byte(fmt.Sprintf(spec, 120)), 0o644); err != nil {
		t.Fatal(err)
	}
	modes := map[string]struct {
		args    []string            // the checkpointed run
		changed map[string][]string // workloads that must not resume from it
	}{
		"flags": {
			args: []string{"-l", "256", "-n", "16", "-r", "100", "-iters", "3", "-steps", "5"},
			changed: map[string][]string{
				"different r":     {"-l", "256", "-n", "16", "-r", "120", "-iters", "3", "-steps", "5"},
				"different steps": {"-l", "256", "-n", "16", "-r", "100", "-iters", "3", "-steps", "6"},
				"different seed":  {"-l", "256", "-n", "16", "-r", "100", "-iters", "3", "-steps", "5", "-seed", "9"},
				"different iters": {"-l", "256", "-n", "16", "-r", "100", "-iters", "4", "-steps", "5"},
			},
		},
		"scenario": {
			args: []string{"-scenario", scen},
			changed: map[string][]string{
				"different radii": {"-scenario", changedRadii},
				"different steps": {"-scenario", scen, "-steps", "6"},
				"different seed":  {"-scenario", scen, "-seed", "9"},
				"different iters": {"-scenario", scen, "-iters", "4"},
			},
		},
	}
	for mode, m := range modes {
		base := filepath.Join(t.TempDir(), "ck")
		var out strings.Builder
		if err := run(context.Background(), append(append([]string{}, m.args...), "-checkpoint", base), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		for name, changed := range m.changed {
			var out, errOut strings.Builder
			if code := cliMain(append(changed, "-resume", base), &out, &errOut); code != 1 {
				t.Errorf("%s mode, %s: exit code %d, want 1 (resume must reject a changed workload)", mode, name, code)
			} else if !strings.Contains(errOut.String(), "does not match") {
				t.Errorf("%s mode, %s: stderr lacks a mismatch explanation:\n%s", mode, name, errOut.String())
			}
		}
		// Performance knobs may change freely: results depend on none of them.
		for _, knob := range [][]string{{"-workers", "3"}, {"-kinetic", "off"}, {"-spatial", "kdtree"}} {
			args := append(append(append([]string{}, m.args...), knob...), "-resume", base)
			var out, errOut strings.Builder
			if code := cliMain(args, &out, &errOut); code != 0 {
				t.Errorf("%s mode: resume with %v failed (exit %d): %s", mode, knob, code, errOut.String())
			} else if !strings.Contains(errOut.String(), "resuming fixed phase") {
				t.Errorf("%s mode: run with %v did not resume:\n%s", mode, knob, errOut.String())
			}
		}
	}
}

// TestGoldenStdout pins the flag-mode and scenario-mode stdout layouts byte
// for byte against the files under testdata/.
func TestGoldenStdout(t *testing.T) {
	for golden, args := range map[string][]string{
		"flags.golden": {"-l", "512", "-n", "24", "-r", "150", "-iters", "3", "-steps", "40",
			"-model", "drunkard", "-seed", "5", "-workers", "2", "-curve", "-per-iter"},
		"scenario.golden": {"-scenario", filepath.Join("..", "..", "scenarios", "mixed-stationary-fleet.json"),
			"-iters", "2", "-steps", "30", "-workers", "2", "-per-iter"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(context.Background(), args, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", golden, err)
		}
		if out.String() != string(want) {
			t.Errorf("%s: stdout differs:\n--- got ---\n%s\n--- want ---\n%s", golden, out.String(), want)
		}
	}
}

func TestResumeWithoutFileRunsFresh(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-l", "256", "-n", "16", "-r", "100", "-iters", "2", "-steps", "3",
		"-resume", filepath.Join(t.TempDir(), "never-written"),
	}, &out, io.Discard)
	if err != nil {
		t.Fatalf("missing checkpoint files must not fail a -resume run: %v", err)
	}
	if !strings.Contains(out.String(), "connected graphs:") {
		t.Errorf("fresh -resume run produced no results:\n%s", out.String())
	}
}

// TestSpatialFlag pins the -spatial contract: every named backend produces
// byte-identical output (the backend is a pure performance knob), unknown
// names are usage errors, and the flag is a legal scenario-mode override.
func TestSpatialFlag(t *testing.T) {
	base := []string{
		"-l", "2048", "-n", "80", "-r", "300", "-placement", "clusters",
		"-iters", "2", "-steps", "10", "-model", "waypoint",
	}
	var want string
	for _, backend := range []string{"grid", "kdtree", "auto"} {
		var out strings.Builder
		args := append(append([]string{}, base...), "-spatial", backend)
		if err := run(context.Background(), args, &out, io.Discard); err != nil {
			t.Fatalf("-spatial %s: %v", backend, err)
		}
		if want == "" {
			want = out.String()
			continue
		}
		if out.String() != want {
			t.Errorf("-spatial %s output differs from grid:\n%s", backend, out.String())
		}
	}
	var out, errOut strings.Builder
	if code := cliMain(append(append([]string{}, base...), "-spatial", "rtree"), &out, &errOut); code != 2 {
		t.Fatalf("-spatial rtree: exit code %d, want 2 (usage error); stderr: %s", code, errOut.String())
	}
	out.Reset()
	err := run(context.Background(), []string{
		"-scenario", filepath.Join("..", "..", "scenarios", "hotspot-city.json"),
		"-iters", "1", "-steps", "3", "-spatial", "kdtree",
	}, &out, io.Discard)
	if err != nil {
		t.Fatalf("scenario-mode -spatial override rejected: %v", err)
	}
}

// TestObservabilityFlags drives the full telemetry surface through the CLI:
// a run with -obs, -run-report and -progress must produce stdout identical
// to an uninstrumented run, announce the live endpoint, print heartbeats,
// and leave behind a schema-valid report carrying the workload identity,
// both phase timings and the deterministic iteration counters.
func TestObservabilityFlags(t *testing.T) {
	// Sized so the instrumented run spans many 1ms progress intervals.
	base := []string{
		"-l", "1024", "-n", "128", "-r", "250",
		"-iters", "3", "-steps", "300", "-curve",
	}
	var want strings.Builder
	if err := run(context.Background(), base, &want, io.Discard); err != nil {
		t.Fatal(err)
	}

	report := filepath.Join(t.TempDir(), "report.json")
	var out, errOut strings.Builder
	args := append(append([]string{}, base...),
		"-obs", "127.0.0.1:0", "-run-report", report, "-progress", "1ms")
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("observability perturbed stdout:\n--- plain ---\n%s\n--- instrumented ---\n%s", want.String(), out.String())
	}
	if !strings.Contains(errOut.String(), "serving telemetry on http://127.0.0.1:") {
		t.Errorf("stderr does not announce the ops endpoint:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "adhocsim: progress") {
		t.Errorf("stderr has no progress heartbeat:\n%s", errOut.String())
	}

	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.DecodeRunReport(data)
	if err != nil {
		t.Fatalf("report does not round-trip strictly: %v\n%s", err, data)
	}
	if spec, err := scenario.Decode([]byte(rep.Workload)); err != nil || spec.Region.L != 1024 || spec.Nodes != 128 {
		t.Errorf("report workload = %q, want the flag-built spec's identity (decode error: %v)", rep.Workload, err)
	}
	if rep.Iterations != 3 || rep.Steps != 300 {
		t.Errorf("report effort = %dx%d, want 3x300", rep.Iterations, rep.Steps)
	}
	// Both run phases (fixed evaluation, -curve range estimation) finish
	// 3 iterations each: 6 total, none restored.
	if got := rep.Counters[obs.MetricIterationsTotal]; got != 6 {
		t.Errorf("iterations counter = %d, want 6", got)
	}
	if got := rep.Counters[obs.MetricIterationsRestored]; got != 0 {
		t.Errorf("restored counter = %d, want 0", got)
	}
	var names []string
	for _, p := range rep.Phases {
		names = append(names, p.Name)
	}
	if fmt.Sprint(names) != "[fixed ranges]" {
		t.Errorf("report phases = %v, want [fixed ranges]", names)
	}
	if rep.WallSeconds <= 0 {
		t.Errorf("report wall_seconds = %v, want > 0", rep.WallSeconds)
	}
	if _, ok := rep.Counters[`adhocnet_run_phase_ns_total{phase="fixed"}`]; !ok {
		t.Errorf("report lacks the labelled fixed-phase counter; counters: %v", rep.Counters)
	}
}

// TestObservabilityServesDuringRun polls the live endpoint while a run is
// executing: /metrics must expose Prometheus text and /vars the JSON
// snapshot. The run is sized to outlast the scrape.
func TestObservabilityServesDuringRun(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-l", "2048", "-n", "256", "-r", "400",
			"-iters", "8", "-steps", "400", "-workers", "2",
			"-obs", addr,
		}, io.Discard, io.Discard)
	}()
	defer func() {
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	get := func(path string) (string, bool) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err == nil && resp.StatusCode == http.StatusOK
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("endpoint never served the scheduler counters during the run")
		}
		if body, ok := get("/metrics"); ok && strings.Contains(body, "# TYPE adhocnet_run_iterations_total counter") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if body, ok := get("/vars"); !ok || !strings.Contains(body, `"counters"`) {
		t.Errorf("/vars is not serving the JSON snapshot during the run: %s", body)
	}
}

// TestRunReportWrittenOnInterrupt pins the post-mortem contract: a timed-out
// run still exits 3 AND leaves a valid report behind.
func TestRunReportWrittenOnInterrupt(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	var out, errOut strings.Builder
	code := cliMain([]string{
		"-l", "4096", "-n", "512", "-r", "400",
		"-iters", "50", "-steps", "400", "-workers", "2",
		"-timeout", "100ms", "-run-report", report,
	}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit code %d, want 3 (stderr: %s)", code, errOut.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("no report written on timeout: %v", err)
	}
	rep, err := obs.DecodeRunReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters[obs.MetricIterationsTotal] >= 50 {
		t.Errorf("interrupted run reports %d iterations, want < 50", rep.Counters[obs.MetricIterationsTotal])
	}
}
