package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"adhocnet/internal/obs"
)

// childEnv marks a process as a workload child: the parent spawns its own
// executable with this variable set, so every workload runs in a fresh
// process whose start-up, memory and CPU belong to that workload alone.
const childEnv = "ADHOCBENCH_CHILD"

// childOpts are the child's arguments.
type childOpts struct {
	workload  string
	seed      int64
	seconds   float64
	minReps   int
	trace     bool
	smoke     bool
	setupOnly bool
	traceDir  string
}

func (o childOpts) args() []string {
	a := []string{
		"-workload", o.workload,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-min-reps", fmt.Sprint(o.minReps),
		fmt.Sprintf("-trace=%t", o.trace),
		fmt.Sprintf("-smoke=%t", o.smoke),
		fmt.Sprintf("-setup-only=%t", o.setupOnly),
	}
	if o.traceDir != "" {
		a = append(a, "-trace-dir", o.traceDir)
	}
	return a
}

// childReport is the one JSON line a working child prints last.
type childReport struct {
	BuildUs   float64   `json:"build_us"`
	Digest    string    `json:"digest"` // the first rep's result digest
	RunS      []float64 `json:"run_s"`
	AllocMB   []float64 `json:"alloc_mb"`
	TracedS   []float64 `json:"traced_s,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	// Layers holds the per-layer metrics of a traced child.
	Layers map[string]float64 `json:"layers,omitempty"`
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
}

// resultPrefix starts the child's report line.
const resultPrefix = "result "

// childMain sets the workload up, prints "ready" (the parent times set-up up
// to that line), and unless -setup-only is given runs the reps and prints
// its report.
//
// Both kinds first run the workload once at smoke effort, which takes the
// same code paths and so lets pools, caches and lazy set-up settle. Then
// untraced: timed reps until at least minReps ran and another rep would end
// more than half a rep past seconds; traced: pairs of an untraced and a
// traced rep under the same stopping rule, then the replay.
func childMain(args []string, stdout io.Writer) int {
	var o childOpts
	fs := flag.NewFlagSet("adhocbench child", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "")
	fs.Int64Var(&o.seed, "seed", -1, "")
	fs.Float64Var(&o.seconds, "seconds", 0, "")
	fs.IntVar(&o.minReps, "min-reps", 1, "")
	fs.BoolVar(&o.trace, "trace", false, "")
	fs.BoolVar(&o.smoke, "smoke", false, "")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "")
	fs.StringVar(&o.traceDir, "trace-dir", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(benchWorkers)

	start := time.Now()
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocbench:", err)
		return 1
	}
	j, err := prepare(w, o.seed, o.smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocbench:", err)
		return 1
	}
	rep := childReport{BuildUs: float64(time.Since(start).Nanoseconds()) / 1e3}
	fmt.Fprintln(stdout, "ready")
	if o.setupOnly {
		return 0
	}
	warm, err := prepare(w, o.seed, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocbench:", err)
		return 1
	}

	ctx := context.Background()
	chk := &checker{j: j}
	// once runs one rep of j; a live registry makes it the traced kind.
	once := func(j *job, c *checker, reg *obs.Registry) (sec, allocMB, cpuS float64) {
		// Two collections also empty sync.Pool, whose victim cache survives
		// one, so every rep starts from the same heap and pool state.
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, t0 := cpuTime(), time.Now()
		digest, err := j.run(ctx, reg)
		sec, cpuS = time.Since(t0).Seconds(), cpuTime()-cpu0
		runtime.ReadMemStats(&m1)
		if err == nil {
			err = c.check(digest)
		}
		if err == nil && reg != nil {
			err = checkEvalCount(reg, j.snapshots())
		}
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, err.Error())
		}
		return sec, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), cpuS
	}

	once(warm, &checker{j: warm}, nil)
	var cores []map[string]float64
	t0, last := time.Now(), 0.0
	for len(rep.RunS) < o.minReps || time.Since(t0).Seconds()+last/2 < o.seconds {
		t1 := time.Now()
		sec, mb, _ := once(j, chk, nil)
		rep.RunS = append(rep.RunS, sec)
		rep.AllocMB = append(rep.AllocMB, mb)
		if o.trace {
			reg := obs.NewRegistry()
			sec, _, cpu := once(j, chk, reg)
			rep.TracedS = append(rep.TracedS, sec)
			cores = append(cores, coreMetrics(reg, sec, cpu))
		}
		last = time.Since(t1).Seconds()
	}
	if o.trace {
		rr, err := replay(j)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adhocbench: replay:", err)
			return 1
		}
		rep.Layers = rr.layers
		for name := range cores[0] {
			vs := make([]float64, len(cores))
			for i, c := range cores {
				vs[i] = c[name]
			}
			rep.Layers[name] = median(vs)
		}
		rep.Layers["scenario.build_us"] = rep.BuildUs
		rep.Layers["trace_overhead_frac"] = median(rep.TracedS)/median(rep.RunS) - 1
		rep.SelfMs = rr.selfMs
		if o.traceDir != "" {
			if err := writeTrace(o.traceDir, w.name, rr); err != nil {
				fmt.Fprintln(os.Stderr, "adhocbench:", err)
				return 1
			}
		}
	}
	rep.Digest = chk.first
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", resultPrefix, line)
	return 0
}

// Scheduler metric names, from the catalog in DESIGN.md "Observability".
const (
	metricStallNs       = "adhocnet_scheduler_producer_stall_ns"
	metricRingOccupancy = "adhocnet_scheduler_ring_occupancy"
)

// checkEvalCount checks the traced run evaluated exactly the pinned number
// of snapshots.
func checkEvalCount(reg *obs.Registry, want int) error {
	if got := reg.Histogram(obs.MetricEvalNs).Count(); got != uint64(want) {
		return fmt.Errorf("traced run evaluated %d snapshots, want %d", got, want)
	}
	return nil
}

// coreMetrics derives the scheduler's phase shares from a traced run: phase
// nanoseconds over the run's capacity, wall time times workers.
func coreMetrics(reg *obs.Registry, wallS, cpuS float64) map[string]float64 {
	capNs := wallS * 1e9 * benchWorkers
	eval := float64(reg.Histogram(obs.MetricEvalNs).Sum())
	produce := float64(reg.Histogram(obs.MetricProduceNs).Sum())
	merge := float64(reg.Histogram(obs.MetricMergeNs).Sum())
	ring := reg.Histogram(metricRingOccupancy)
	return map[string]float64{
		"core.eval_share":          eval / capNs,
		"core.produce_share":       produce / capNs,
		"core.merge_share":         merge / capNs,
		"core.unattributed_share":  1 - (eval+produce+merge)/capNs,
		"core.producer_stall_ms":   float64(reg.Histogram(metricStallNs).Sum()) / 1e6,
		"core.ring_occupancy_mean": ratio(float64(ring.Sum()), float64(ring.Count())),
		"core.cpu_util":            cpuS / (wallS * benchWorkers),
	}
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// writeTrace writes the replay's spans and per-layer self times.
func writeTrace(dir, name string, rr *replayResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{name, rr.selfMs, rr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".trace.json"), data, 0o644)
}
