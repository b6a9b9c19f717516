// Command adhocsim is the paper's connectivity simulator (Section 4.1) as a
// CLI: it distributes n nodes in [0,l]^d (uniformly, or per -placement),
// moves them with the selected mobility model, rebuilds the communication
// graph at transmitting range r after every step, and reports the
// percentage of connected graphs, the average size of the largest connected
// component over the disconnected graphs, and the minimum size of the
// largest connected component — per iteration and overall.
//
// Example (one of the paper's Figure 2 operating points):
//
//	adhocsim -l 4096 -n 64 -r 400 -model waypoint -iters 10 -steps 1000
//
// Alternatively the whole workload — region, placement, mobility, run
// parameters and outputs — can come from a declarative scenario file (see
// scenarios/README.md for the schema and scenarios/ for the library):
//
//	adhocsim -scenario scenarios/hotspot-city.json
//
// Both modes run one path: the network flags, or the file, become a
// scenario.Spec; -iters, -steps, -seed, -workers and -kinetic write into its
// run section (in scenario mode only when set explicitly, and explicit
// network flags are rejected there rather than silently shadowed); the spec
// is built once and run phase by phase. -spatial applies to both modes.
//
// # Run lifecycle
//
// SIGINT/SIGTERM cancel the run cooperatively, and -timeout bounds the wall
// clock. With -checkpoint <base>, completed iterations are saved to
// <base>.<phase> files (one per run phase: "fixed" for fixed-range
// evaluation, "ranges" for range estimation) when the run ends for any
// reason — completion, interrupt, timeout or error. A later invocation with
// -resume <base> skips the iterations those files hold and produces output
// bit-identical to an uninterrupted run; checkpoints carry a hash of the
// workload identity (scenario.Spec.Identity: the spec minus its workers and
// kinetic settings), so resuming with changed parameters fails instead of
// mixing results, while the performance knobs may change between attempts.
//
// # Observability
//
// -obs <addr> serves live run telemetry over HTTP while the simulation
// executes: /metrics (Prometheus text), /vars (JSON snapshot, also at
// /debug/vars) and the net/http/pprof handlers under /debug/pprof/.
// -run-report <file> writes an end-of-run JSON summary (schema
// adhocnet/run-report/v1) with the workload identity, per-phase wall
// timings and every counter; it is written even when the run is
// interrupted or fails, so a partial run still leaves a record.
// -progress <interval> prints a heartbeat line to stderr. All three are
// pure observers: results are bit-identical with and without them (see
// DESIGN.md "Observability").
//
// Exit codes: 0 success, 1 simulation or I/O error, 2 flag or usage error,
// 3 interrupted or timed out (checkpoint written when -checkpoint is set).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adhocnet/internal/checkpoint"
	"adhocnet/internal/core"
	"adhocnet/internal/obs"
	"adhocnet/internal/scenario"
	"adhocnet/internal/spatial"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes (documented in the package comment and in -h output).
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitInterrupted = 3
)

// errUsage marks flag/usage failures so cliMain maps them to exit code 2.
var errUsage = errors.New("usage error")

func cliMain(args []string, out, errOut io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, args, out, errOut)
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, flag.ErrHelp):
		return exitUsage
	case errors.Is(err, errUsage):
		fmt.Fprintln(errOut, "adhocsim:", err)
		return exitUsage
	case errors.Is(err, core.ErrCanceled), errors.Is(err, core.ErrDeadlineExceeded):
		fmt.Fprintln(errOut, "adhocsim:", err)
		return exitInterrupted
	default:
		fmt.Fprintln(errOut, "adhocsim:", err)
		return exitError
	}
}

func run(ctx context.Context, args []string, out, errOut io.Writer) (err error) {
	registry := scenario.Default()
	fs := flag.NewFlagSet("adhocsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		scenarioPath = fs.String("scenario", "", "run a declarative scenario file instead of the flag-built network")
		n            = fs.Int("n", 64, "number of nodes")
		l            = fs.Float64("l", 4096, "side of the deployment region [0,l]^d")
		dim          = fs.Int("d", 2, "dimension of the deployment region (1, 2 or 3)")
		r            = fs.Float64("r", 0, "transmitting range (required, > 0)")
		iters        = fs.Int("iters", 50, "number of independent iterations")
		steps        = fs.Int("steps", 10000, "mobility steps per iteration (1 = stationary)")
		seed         = fs.Uint64("seed", 1, "random seed")
		workers      = fs.Int("workers", 0, "total simulation parallelism, split across iterations and snapshots (0 = all CPUs)")
		spatialName  = fs.String("spatial", "auto", "spatial index backend: auto (per-snapshot heuristic), grid, kdtree — performance only, results are identical")
		kineticName  = fs.String("kinetic", "auto", "trajectory evaluation: auto (kinetic when each iteration has one evaluator), on (kinetic everywhere; a snapshot pool repairs within blocks of steps), off — performance only, results are identical")
		model        = fs.String("model", "waypoint",
			"mobility model: "+strings.Join(registry.MobilityKinds(), ", "))
		placement = fs.String("placement", "uniform",
			"initial placement (registry defaults): "+strings.Join(registry.PlacementKinds(), ", "))
		verbose = fs.Bool("per-iter", false, "print per-iteration results")
		curve   = fs.Bool("curve", false, "also print the range-vs-uptime curve (r_f for f = 0..1)")

		// Lifecycle flags (exit codes: 0 ok, 1 error, 2 usage, 3 interrupted).
		timeout    = fs.Duration("timeout", 0, "cancel the run after this wall-clock duration (0 = no limit)")
		ckptPath   = fs.String("checkpoint", "", "write completed iterations to <base>.<phase> checkpoint files when the run ends")
		resumePath = fs.String("resume", "", "resume from <base>.<phase> checkpoint files written by -checkpoint")

		// Observability flags (pure observers; results are unaffected).
		obsAddr       = fs.String("obs", "", "serve live telemetry on this address (/metrics, /vars, /debug/pprof/) while the run executes")
		reportPath    = fs.String("run-report", "", "write an end-of-run telemetry summary (JSON, schema "+obs.RunReportSchema+") to this file")
		progressEvery = fs.Duration("progress", 0, "print a progress heartbeat to stderr at this interval (0 = off)")

		// Random waypoint / random direction / rpgm-leader parameters.
		vmin        = fs.Float64("vmin", 0.1, "waypoint/direction/rpgm: minimum speed (units per step)")
		vmax        = fs.Float64("vmax", -1, "waypoint/direction/rpgm: maximum speed (default 0.01*l)")
		tpause      = fs.Int("tpause", 2000, "waypoint/direction/rpgm: pause steps at destination")
		pstationary = fs.Float64("pstationary", 0, "waypoint/drunkard/direction/gaussmarkov: fraction of nodes that never move")

		// Drunkard parameters.
		ppause = fs.Float64("ppause", 0.3, "drunkard: per-step pause probability")
		m      = fs.Float64("m", -1, "drunkard: step radius (default 0.01*l)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	backend, err := spatial.ParseBackend(*spatialName)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if _, err := core.ParseKineticMode(*kineticName); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ob, err := startObservability(*obsAddr, *reportPath, *progressEvery, errOut)
	if err != nil {
		return err
	}
	// The report must be written even when the run is interrupted or fails
	// (the named return carries the run's error past this defer); a partial
	// run's telemetry is exactly what a post-mortem wants.
	defer func() {
		if ferr := ob.finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	lc := &lifecycle{ctx: ctx, checkpoint: *ckptPath, resume: *resumePath, errOut: errOut, obs: ob}

	// Both modes describe the workload as one scenario.Spec: read from the
	// file, or built from the network flags.
	var spec scenario.Spec
	visitRunFlags := fs.Visit
	if *scenarioPath != "" {
		if spec, err = scenario.ReadSpecFile(*scenarioPath); err != nil {
			return err
		}
	} else {
		if *r <= 0 {
			return fmt.Errorf("%w: flag -r is required and must be positive (got %v)", errUsage, *r)
		}
		mob, err := registry.MobilityPart(*l, *model, scenario.ModelFlags{
			VMin: *vmin, VMax: *vmax, Pause: *tpause,
			PStationary: *pstationary, PPause: *ppause, M: *m,
			Set: explicitFlags(fs),
		})
		if err != nil {
			return err
		}
		spec = scenario.Spec{Name: "adhocsim", Region: scenario.RegionSpec{L: *l, Dim: *dim},
			Nodes: *n, Mobility: mob, Radii: []float64{*r}}
		if *placement != "uniform" {
			place := scenario.Part(*placement)
			spec.Placement = &place
		}
		if *curve {
			spec.Targets = &scenario.TargetsSpec{Time: []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1}}
		}
		// Without a file the run flags define the run, defaults included.
		visitRunFlags = fs.VisitAll
	}
	// Explicitly-set run flags override the file, so a library scenario can
	// be probed at a different effort without editing it. Explicit network
	// flags would be silently shadowed by the file — reject them instead of
	// running a workload the user didn't ask for.
	var shadowed []string
	visitRunFlags(func(f *flag.Flag) {
		switch f.Name {
		case "iters":
			spec.Run.Iterations = *iters
		case "steps":
			spec.Run.Steps = *steps
		case "seed":
			spec.Run.Seed = seed
		case "workers":
			spec.Run.Workers = *workers
		case "kinetic":
			spec.Run.Kinetic = *kineticName
		case "scenario", "spatial", "per-iter", "timeout", "checkpoint", "resume",
			"obs", "run-report", "progress":
		default:
			shadowed = append(shadowed, "-"+f.Name)
		}
	})
	if *scenarioPath != "" && len(shadowed) > 0 {
		return fmt.Errorf("%w: flags %s have no effect with -scenario (the file defines the workload; only -iters, -steps, -seed, -workers, -spatial, -kinetic, -per-iter and the lifecycle flags apply)",
			errUsage, strings.Join(shadowed, ", "))
	}
	sc, err := registry.Build(spec)
	if err != nil {
		return err
	}
	sc.Config.Spatial = backend
	sc.Config.Obs = ob.registry()
	if lc.workload, err = sc.Spec.Identity(); err != nil {
		return err
	}
	ob.describe(lc.workload, sc.Config)

	fixed, est, err := runPhases(lc, sc)
	if err != nil {
		return err
	}
	if *scenarioPath != "" {
		printScenario(out, sc, fixed, est, *verbose)
	} else {
		printFlagRun(out, sc, fixed[0], est, *verbose)
	}
	return nil
}

// explicitFlags records which flags the user passed on the command line,
// so the registry can reject mobility flags the chosen model ignores.
func explicitFlags(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// lifecycle carries the run-lifecycle wiring of one invocation: the
// cancellation context plus the checkpoint/resume base paths. Each run phase
// gets its own checkpoint file (<base>.<phase>) because a scenario run has
// up to two phases with different row layouts.
type lifecycle struct {
	ctx        context.Context
	checkpoint string // base path to write, "" = no checkpointing
	resume     string // base path to read, "" = fresh run
	workload   string // scenario.Spec.Identity of the run, hashed into the files
	errOut     io.Writer
	obs        *observability // nil when no observability flag is set
}

// phase executes one run phase under the lifecycle contract: it wires a
// checkpoint sink into cfg when requested, restores a prior phase file when
// resuming (rejecting workload mismatches), and writes the final checkpoint
// when the phase ends for any reason — including interrupt and error — so a
// later -resume can pick up from the completed iterations.
func (lc *lifecycle) phase(name string, cfg core.RunConfig, rowWidth int, runPhase func(context.Context, core.RunConfig) error) error {
	phaseStart := lc.obs.now()
	defer func() { lc.obs.phaseDone(name, phaseStart) }()
	if lc.checkpoint == "" && lc.resume == "" {
		return runPhase(lc.ctx, cfg)
	}
	meta := checkpoint.Meta{
		Hash:       checkpoint.Hash(lc.workload, name),
		Seed:       cfg.Seed,
		Iterations: cfg.Iterations,
		RowWidth:   rowWidth,
	}
	file := checkpoint.New(meta)
	if lc.resume != "" {
		path := lc.resume + "." + name
		loaded, err := checkpoint.Load(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// No file for this phase (e.g. interrupted before it started):
			// run it from scratch.
		case err != nil:
			return fmt.Errorf("resume: %w", err)
		default:
			if err := loaded.Meta().Check(meta); err != nil {
				return fmt.Errorf("resume %s: %w", path, err)
			}
			file = loaded
			lc.obs.resumeLoaded()
			fmt.Fprintf(lc.errOut, "adhocsim: resuming %s phase from %s (%d/%d iterations done)\n",
				name, path, file.Done(), cfg.Iterations)
		}
	}
	cfg.Sink = file
	runErr := runPhase(lc.ctx, cfg)
	if lc.checkpoint != "" {
		path := lc.checkpoint + "." + name
		writeStart := lc.obs.now()
		if err := file.Save(path); err != nil {
			return errors.Join(runErr, fmt.Errorf("checkpoint: %w", err))
		}
		lc.obs.checkpointWritten(writeStart)
		if runErr != nil {
			fmt.Fprintf(lc.errOut, "adhocsim: checkpoint written to %s (%d/%d iterations done)\n",
				path, file.Done(), cfg.Iterations)
		}
	}
	return runErr
}

// observability bundles the invocation's telemetry surface: one live
// registry shared by the simulation (via RunConfig.Obs), the optional HTTP
// ops endpoint, the optional progress heartbeat, and the optional end-of-run
// report. A nil *observability is the no-flags state: every method no-ops,
// so call sites never branch on whether telemetry was requested.
type observability struct {
	reg      *obs.Registry
	server   *obs.Server
	progress *obs.Progress
	report   string // run-report path, "" = none
	errOut   io.Writer

	start  time.Time
	phases []obs.PhaseTiming

	// Report identity, filled by describe once the workload is known.
	workload   string
	iterations int
	steps      int
	workers    int
	split      string
}

// startObservability builds the bundle when any observability flag is set;
// with none set it returns nil and the run carries no instrumentation at all
// (RunConfig.Obs == nil, the absent fast path).
func startObservability(addr, report string, progressEvery time.Duration, errOut io.Writer) (*observability, error) {
	if addr == "" && report == "" && progressEvery <= 0 {
		return nil, nil
	}
	ob := &observability{reg: obs.NewRegistry(), report: report, errOut: errOut, start: obs.Clock.Now()}
	if addr != "" {
		srv, err := obs.StartServer(addr, ob.reg)
		if err != nil {
			return nil, err
		}
		ob.server = srv
		fmt.Fprintf(errOut, "adhocsim: serving telemetry on http://%s (/metrics, /vars, /debug/pprof/)\n", srv.Addr())
	}
	if progressEvery > 0 {
		ob.progress = obs.StartProgress(errOut, ob.reg, "adhocsim", progressEvery)
	}
	return ob, nil
}

// registry returns the live registry, nil when observability is off.
func (ob *observability) registry() *obs.Registry {
	if ob == nil {
		return nil
	}
	return ob.reg
}

// describe records the run's identity for the report header.
func (ob *observability) describe(workload string, cfg core.RunConfig) {
	if ob == nil {
		return
	}
	ob.workload = workload
	ob.iterations = cfg.Iterations
	ob.steps = cfg.Steps
	ob.workers = cfg.ResolvedWorkers()
	ob.split = cfg.FormatLevels()
}

// now reads the clock for a later phaseDone/checkpointWritten; the zero time
// when observability is off, so the no-flags run never touches the clock.
func (ob *observability) now() time.Time {
	if ob == nil {
		return time.Time{}
	}
	return obs.Clock.Now()
}

// phaseDone closes one run phase: its wall time goes to the per-phase
// counter (labelled, so the fixed and ranges phases chart separately) and to
// the report's phase table.
func (ob *observability) phaseDone(name string, start time.Time) {
	if ob == nil {
		return
	}
	d := obs.Clock.Since(start)
	ob.reg.Counter(`adhocnet_run_phase_ns_total{phase="` + name + `"}`).Add(uint64(d.Nanoseconds()))
	ob.phases = append(ob.phases, obs.PhaseTiming{Name: name, Seconds: d.Seconds()})
}

// checkpointWritten records one checkpoint save and its write latency.
func (ob *observability) checkpointWritten(start time.Time) {
	if ob == nil {
		return
	}
	ob.reg.Counter("adhocnet_checkpoint_writes_total").Inc()
	ob.reg.Histogram("adhocnet_checkpoint_write_ns").Observe(obs.Clock.Since(start).Nanoseconds())
}

// resumeLoaded counts one successful checkpoint restore (the iterations it
// skipped are counted by the scheduler as restored iterations).
func (ob *observability) resumeLoaded() {
	if ob == nil {
		return
	}
	ob.reg.Counter("adhocnet_checkpoint_resumes_total").Inc()
}

// finish tears the surface down in observer order — heartbeat first, then
// the endpoint (joining its goroutine), then the report, which is written on
// every exit path including interrupt and error.
func (ob *observability) finish() error {
	if ob == nil {
		return nil
	}
	if ob.progress != nil {
		ob.progress.Stop()
	}
	var errs []error
	if ob.server != nil {
		if err := ob.server.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if ob.report != "" {
		rep := obs.NewRunReport(ob.reg)
		rep.Workload = ob.workload
		rep.Iterations = ob.iterations
		rep.Steps = ob.steps
		rep.Workers = ob.workers
		rep.Split = ob.split
		rep.WallSeconds = obs.Clock.Since(ob.start).Seconds()
		rep.Phases = ob.phases
		if err := rep.WriteFile(ob.report); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(ob.errOut, "adhocsim: run report written to %s\n", ob.report)
		}
	}
	return errors.Join(errs...)
}

// runPhases runs a scenario's lifecycle phases: every fixed radius of the
// spec through the paper simulator ("fixed"), then the range-estimation
// targets ("ranges"). A phase with nothing to evaluate is skipped.
func runPhases(lc *lifecycle, sc *scenario.Scenario) (fixed []core.FixedRangeResult, est core.RangeEstimates, err error) {
	if len(sc.Radii) > 0 {
		err = lc.phase("fixed", sc.Config, core.FixedRangeRowWidth(len(sc.Radii)),
			func(ctx context.Context, cfg core.RunConfig) (err error) {
				fixed, err = core.EvaluateFixedRanges(ctx, sc.Network, cfg, sc.Radii)
				return err
			})
		if err != nil {
			return nil, est, err
		}
	}
	if sc.Targets.RowWidth() > 0 {
		err = lc.phase("ranges", sc.Config, sc.Targets.RowWidth(),
			func(ctx context.Context, cfg core.RunConfig) (err error) {
				est, err = core.EstimateRanges(ctx, sc.Network, cfg, sc.Targets)
				return err
			})
	}
	return fixed, est, err
}

// printFlagRun prints a flag-built run: its one radius, the -curve
// range-vs-uptime table when requested, then the per-iteration rows.
func printFlagRun(out io.Writer, sc *scenario.Scenario, res core.FixedRangeResult, est core.RangeEstimates, verbose bool) {
	printHeader(out, sc.Network, sc.Config, fmt.Sprintf("r=%g", res.Radius))
	printFixed(out, res)
	if len(est.Time) > 0 {
		fmt.Fprintf(out, "\nrange-vs-uptime curve (mean over iterations):\n")
		fmt.Fprintf(out, "%10s %12s %12s\n", "uptime", "range", "range/r")
		for _, e := range est.Time {
			fmt.Fprintf(out, "%9.0f%% %12.2f %12.3f\n", 100*e.Target, e.Mean, e.Mean/res.Radius)
		}
	}
	if verbose {
		printPerIteration(out, res)
	}
}

// printScenario prints a scenario-file run: its name and description, every
// fixed radius, then the range-estimation summary.
func printScenario(out io.Writer, sc *scenario.Scenario, fixed []core.FixedRangeResult, est core.RangeEstimates, verbose bool) {
	fmt.Fprintf(out, "scenario: %s\n", sc.Spec.Name)
	if sc.Spec.Description != "" {
		fmt.Fprintf(out, "  %s\n", sc.Spec.Description)
	}
	printHeader(out, sc.Network, sc.Config, fmt.Sprintf("placement=%s", sc.PlacementName()))
	for _, res := range fixed {
		fmt.Fprintf(out, "--- r = %g ---\n", res.Radius)
		printFixed(out, res)
		if verbose {
			printPerIteration(out, res)
		}
		fmt.Fprintln(out)
	}
	if sc.Targets.RowWidth() == 0 {
		return
	}
	fmt.Fprintf(out, "range estimates (per-iteration summary):\n")
	fmt.Fprintf(out, "%12s %12s %12s %12s %12s\n", "target", "mean", "std", "min", "max")
	for _, e := range est.Time {
		fmt.Fprintf(out, "  r_time(%3.0f%%) %10.2f %12.2f %12.2f %12.2f\n",
			100*e.Target, e.Mean, e.Std, e.Min, e.Max)
	}
	for _, e := range est.Component {
		fmt.Fprintf(out, "  r_comp(%3.0f%%) %10.2f %12.2f %12.2f %12.2f\n",
			100*e.Target, e.Mean, e.Std, e.Min, e.Max)
	}
}

func printHeader(out io.Writer, net core.Network, cfg core.RunConfig, extra string) {
	fmt.Fprintf(out, "network: n=%d, region=[0,%g]^%d, model=%s, %s\n",
		net.Nodes, net.Region.L, net.Region.Dim, net.Model.Name(), extra)
	fmt.Fprintf(out, "run: %d iterations x %d steps, seed %d, workers %d (iteration x snapshot split %s)\n\n",
		cfg.Iterations, cfg.Steps, cfg.Seed, cfg.ResolvedWorkers(), cfg.FormatLevels())
}

func printFixed(out io.Writer, res core.FixedRangeResult) {
	fmt.Fprintf(out, "connected graphs:        %6.2f%%\n", 100*res.ConnectedFraction)
	if math.IsNaN(res.AvgLargestDisconnected) {
		fmt.Fprintf(out, "avg largest (disc.):     -      (no disconnected graphs)\n")
	} else {
		fmt.Fprintf(out, "avg largest (disc.):     %6.2f nodes (%.1f%% of n)\n",
			res.AvgLargestDisconnected, 100*res.AvgLargestFraction)
	}
	fmt.Fprintf(out, "min largest component:   %d nodes\n", res.MinLargest)
}

func printPerIteration(out io.Writer, res core.FixedRangeResult) {
	fmt.Fprintf(out, "\nper-iteration results:\n")
	fmt.Fprintf(out, "%5s %12s %14s %12s %10s %10s\n",
		"iter", "connected%", "avgLCC(disc)", "minLCC", "outages", "maxOutage")
	for i, it := range res.PerIteration {
		avg := "-"
		if !math.IsNaN(it.AvgLargestDisconnected) {
			avg = fmt.Sprintf("%.2f", it.AvgLargestDisconnected)
		}
		fmt.Fprintf(out, "%5d %11.2f%% %14s %12d %10d %10d\n",
			i, 100*it.ConnectedFraction, avg, it.MinLargest,
			it.Intervals.Count, it.Intervals.MaxLength)
	}
}
