// Command adhocbench is the repository's end-to-end and per-layer benchmark.
// It runs five named workloads (workloads.go), each in child processes of
// its own binary, one after another with two simulation workers, and checks
// every result against a recorded SHA-256 or, under -seed, against the
// workload's invariants. README.md is the glossary of workloads and metrics.
//
//	sh cmd/adhocbench/bench.sh                      # all workloads: table, bench-out/results.json, bench-out/traces/
//	sh cmd/adhocbench/bench.sh -workload kinetic-drift -seed 5 -seconds 10 -trace 0
//	sh cmd/adhocbench/bench.sh -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end-to-end metrics BENCHMARK.json lists (-trace 0) or its per-layer
// metrics (-trace 1).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchDef is BENCHMARK.json, the benchmark's contract: its command,
// workloads and metrics with their bounds.
type benchDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// failedFrac is reported beside BENCHMARK.json's end-to-end metrics. It is 0
// on a healthy run, so it cannot carry a relative bound there; any rise
// above the baseline counts as worse.
var failedFrac = metricDef{Name: "failed_frac", Unit: "frac", Better: "lower"}

const (
	// setupSpawns is the number of set-up-only children started per
	// measurement, besides the working children; setup_s is the median of
	// all of them.
	setupSpawns = 30
	// untracedChildren is the number of working children of the untraced
	// phase. Pooling the timed reps of several processes, and taking the
	// median of their peak RSS, keeps one process's memory layout or garbage
	// collection timing from setting the result.
	untracedChildren = 3
	// fullMinReps and driverMinReps are the minimum timed reps of the
	// untraced phase, over all its children, of a full run and of a
	// -workload run.
	fullMinReps   = 6
	driverMinReps = 3
	// driverDeadline bounds one -workload run, builds excluded.
	driverDeadline = 170 * time.Second
)

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("adhocbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run one workload and print one JSON result line (default: all workloads, full report)")
		seed     = fs.Int64("seed", -1, "seed for every workload (-1: each workload's recorded seed)")
		seconds  = fs.Float64("seconds", 0, "duration of the timed phase in seconds, on top of the minimum rep count")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "run every workload at a few steps (exercises the harness, not the program)")
		outDir   = fs.String("out", "bench-out", "without -workload: directory for results.json and traces/")
		compare  = fs.Bool("compare", false, "compare two results files: adhocbench -compare a.json b.json")
		commit   = fs.String("commit", "unknown", "commit recorded in every result row")
		benchDoc = fs.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "adhocbench: -trace must be 0 or 1")
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout)
	}
	def, err := loadBenchDef(*benchDoc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocbench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocbench:", err)
		return 1
	}
	env := runEnv{def: def, exe: exe, seed: *seed, seconds: *seconds, smoke: *smoke, commit: *commit}
	if *name != "" {
		err = env.driver(stdout, *name, *trace == 1)
	} else {
		err = env.full(stdout, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocbench:", err)
		return 1
	}
	return 0
}

type runEnv struct {
	def     *benchDef
	exe     string
	seed    int64
	seconds float64
	smoke   bool
	commit  string
}

// driver measures one workload and prints the single JSON result line.
func (e runEnv) driver(stdout io.Writer, name string, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), driverDeadline)
	defer cancel()
	m, err := e.measure(ctx, name, traced, driverMinReps, "")
	if err != nil {
		return err
	}
	r, err := e.newRow(w)
	if err != nil {
		return err
	}
	defs := e.def.EndToEnd
	if traced {
		defs = e.def.PerLayer
		r.addLayers(defs, m)
	} else {
		r.addEndToEnd(defs, m)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{m.Failed == 0, m.Attempted, m.Failed, make(map[string]metric)}
	for _, d := range defs {
		v, ok := r.value(d.Name)
		if !ok {
			return fmt.Errorf("%s: the harness does not measure metric %q", name, d.Name)
		}
		out.Metrics[d.Name] = metric{v, d.Unit}
	}
	for _, msg := range m.Errors {
		fmt.Fprintln(os.Stderr, "adhocbench: failed rep:", msg)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// full measures every workload untraced and traced, prints the report and
// writes results.json and the traces under outDir.
func (e runEnv) full(stdout io.Writer, outDir string) error {
	minReps := fullMinReps
	if e.smoke {
		minReps = untracedChildren
	}
	traceDir := filepath.Join(outDir, "traces")
	e2e := append(slices.Clone(e.def.EndToEnd), failedFrac)
	res := results{Schema: resultsSchema}
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(os.Stderr, "adhocbench: %s ...\n", w.name)
		r, err := e.newRow(w)
		if err != nil {
			return err
		}
		m, err := e.measure(context.Background(), w.name, false, minReps, "")
		if err != nil {
			return err
		}
		r.addEndToEnd(e2e, m)
		if m, err = e.measure(context.Background(), w.name, true, 1, traceDir); err != nil {
			return err
		}
		r.addLayers(e.def.PerLayer, m)
		failed += r.Failed
		res.Workloads = append(res.Workloads, r)
		r.print(stdout, e2e, e.def.PerLayer)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results: %s, traces: %s\n", path, traceDir)
	if failed > 0 {
		return fmt.Errorf("%d reps failed their correctness check", failed)
	}
	return nil
}

const resultsSchema = "adhocbench/results/v1"

// results is the file a full run writes and -compare reads.
type results struct {
	Schema    string `json:"schema"`
	Workloads []*row `json:"workloads"`
}

// row is one workload's measurement.
type row struct {
	Workload   string                `json:"workload"`
	Seed       uint64                `json:"seed"`
	N          int                   `json:"n"`
	Snapshots  int                   `json:"snapshots"`
	Commit     string                `json:"commit"`
	GoVersion  string                `json:"go_version"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Workers    int                   `json:"workers"`
	Smoke      bool                  `json:"smoke,omitempty"`
	Digest     string                `json:"digest"`
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	Errors     []string              `json:"errors,omitempty"`
	EndToEnd   map[string]stat       `json:"end_to_end"`
	PerLayer   map[string]layerValue `json:"per_layer,omitempty"`
	SelfMs     map[string]float64    `json:"self_ms,omitempty"`
}

// stat summarizes the samples of one end-to-end metric.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (e runEnv) newRow(w *workload) (*row, error) {
	j, err := prepare(w, e.seed, e.smoke)
	if err != nil {
		return nil, err
	}
	return &row{
		Workload: w.name, Seed: j.seed, N: j.nodes(), Snapshots: j.snapshots(),
		Commit: e.commit, GoVersion: runtime.Version(), GOMAXPROCS: benchWorkers, Workers: benchWorkers,
		Smoke: e.smoke, EndToEnd: make(map[string]stat), PerLayer: make(map[string]layerValue),
	}, nil
}

// addEndToEnd records the end-to-end metrics of an untraced measurement.
func (r *row) addEndToEnd(defs []metricDef, m *measured) {
	perSec := make([]float64, len(m.RunS))
	for i, s := range m.RunS {
		perSec[i] = float64(r.Snapshots) / s
	}
	samples := map[string][]float64{
		"run_s":           m.RunS,
		"snapshots_per_s": perSec,
		"setup_s":         m.setupS,
		"alloc_mb":        m.AllocMB,
		"peak_rss_mb":     m.peakRSSMB,
		"failed_frac":     {float64(m.Failed) / float64(m.Attempted)},
	}
	for _, d := range defs {
		xs, ok := samples[d.Name]
		if !ok {
			continue
		}
		q1, med, q3 := quartiles(xs)
		r.EndToEnd[d.Name] = stat{Median: med, Q1: q1, Q3: q3, N: len(xs), Unit: d.Unit, Better: d.Better, Bound: d.Bound}
	}
	r.count(m)
}

// addLayers records the per-layer metrics of a traced measurement.
func (r *row) addLayers(defs []metricDef, m *measured) {
	for _, d := range defs {
		if v, ok := m.Layers[d.Name]; ok {
			r.PerLayer[d.Name] = layerValue{v, d.Unit}
		}
	}
	r.SelfMs = m.SelfMs
	r.count(m)
}

// value is the row's median of an end-to-end metric or its per-layer value.
func (r *row) value(name string) (float64, bool) {
	if s, ok := r.EndToEnd[name]; ok {
		return s.Median, true
	}
	l, ok := r.PerLayer[name]
	return l.Value, ok
}

func (r *row) count(m *measured) {
	r.Digest = m.Digest
	r.Attempted += m.Attempted
	r.Failed += m.Failed
	r.Errors = append(r.Errors, m.Errors...)
}

func (r *row) print(w io.Writer, e2e, layers []metricDef) {
	fmt.Fprintf(w, "== %s (seed %d, n %d, %d snapshots, %s, GOMAXPROCS %d, commit %s) ==\n",
		r.Workload, r.Seed, r.N, r.Snapshots, r.GoVersion, r.GOMAXPROCS, r.Commit)
	fmt.Fprintf(w, "%-36s %12s %12s %12s %3s  %s\n", "end-to-end", "median", "q1", "q3", "n", "unit")
	for _, d := range e2e {
		s := r.EndToEnd[d.Name]
		fmt.Fprintf(w, "%-36s %12.6g %12.6g %12.6g %3d  %s\n", d.Name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
	fmt.Fprintf(w, "%-36s %12s  %s\n", "per-layer", "value", "unit")
	for _, d := range layers {
		fmt.Fprintf(w, "%-36s %12.6g  %s\n", d.Name, r.PerLayer[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "replay self time (ms):")
	for _, l := range sortedKeys(r.SelfMs) {
		fmt.Fprintf(w, " %s %.1f", l, r.SelfMs[l])
	}
	fmt.Fprintf(w, "\nresult sha256 %s; reps: %d attempted, %d failed\n", r.Digest, r.Attempted, r.Failed)
	for _, msg := range r.Errors {
		fmt.Fprintf(w, "failed rep: %s\n", msg)
	}
	fmt.Fprintln(w)
}

// measured is one measurement of a workload: the working children's
// reports merged (samples appended, counts summed), the set-up time of every
// child started, and each working child's peak RSS.
type measured struct {
	childReport
	setupS    []float64
	peakRSSMB []float64
}

// measure runs one phase of a workload. The untraced phase spreads its reps
// and seconds over untracedChildren working children; the traced phase runs
// one child, whose timed pairs take half the seconds and whose replay
// follows.
func (e runEnv) measure(ctx context.Context, name string, traced bool, minReps int, traceDir string) (*measured, error) {
	children, seconds := untracedChildren, e.seconds/untracedChildren
	if traced {
		children, seconds = 1, e.seconds/2
	}
	o := childOpts{workload: name, seed: e.seed, seconds: seconds, minReps: (minReps + children - 1) / children,
		trace: traced, smoke: e.smoke, traceDir: traceDir}
	m := &measured{}
	so := o
	so.setupOnly = true
	for i := 0; i < setupSpawns; i++ {
		ready, _, _, err := spawn(ctx, e.exe, so.args())
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, ready.Seconds())
	}
	for i := 0; i < children; i++ {
		ready, lines, st, err := spawn(ctx, e.exe, o.args())
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, ready.Seconds())
		if len(lines) == 0 || !strings.HasPrefix(lines[len(lines)-1], resultPrefix) {
			return nil, fmt.Errorf("%s: child printed no result", name)
		}
		var rep childReport
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-1], resultPrefix)), &rep); err != nil {
			return nil, fmt.Errorf("%s: child result: %w", name, err)
		}
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			m.peakRSSMB = append(m.peakRSSMB, float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
		}
		m.RunS = append(m.RunS, rep.RunS...)
		m.AllocMB = append(m.AllocMB, rep.AllocMB...)
		m.Attempted += rep.Attempted
		m.Failed += rep.Failed
		m.Errors = append(m.Errors, rep.Errors...)
		m.BuildUs, m.Digest, m.Layers, m.SelfMs = rep.BuildUs, rep.Digest, rep.Layers, rep.SelfMs
	}
	return m, nil
}

// spawn runs the executable as a workload child and waits for it to exit.
// ready is the time from starting the process to its "ready" line; lines are
// the other lines it printed.
func spawn(ctx context.Context, exe string, args []string) (ready time.Duration, lines []string, st *os.ProcessState, err error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if ready == 0 && sc.Text() == "ready" {
			ready = time.Since(t0)
			continue
		}
		lines = append(lines, sc.Text())
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Unread output would block the child; stop it before waiting.
		_ = cmd.Process.Kill() // best effort: Wait below reaps it either way
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, nil, fmt.Errorf("child %v: %w", args, err)
	}
	if scanErr != nil {
		return 0, nil, nil, fmt.Errorf("child %v: reading output: %w", args, scanErr)
	}
	if ready == 0 {
		return 0, nil, nil, errors.New("child exited without becoming ready")
	}
	return ready, lines, cmd.ProcessState, nil
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
