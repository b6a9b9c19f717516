package core

// Run-lifecycle tests: typed cancellation, panic containment with
// provenance, goroutine-leak freedom, error joining, and checkpoint/resume
// bit-identity — including the chaos soak test the CI chaos-smoke job runs
// under -race.

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adhocnet/internal/checkpoint"
	"adhocnet/internal/faultinject"
	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
	"adhocnet/internal/xrand"
)

// leakCheck asserts that the test body leaks no goroutines: every scheduler
// path — success, error, panic, cancellation — must join all its workers
// before returning. Registered as a cleanup so it runs after the body.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var after int
		for {
			after = runtime.NumGoroutine()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
		}
	})
}

func TestPreCanceledRunReturnsErrCanceled(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := schedulerTestNet(t, 16)
	cfg := RunConfig{Iterations: 2, Steps: 5, Seed: 1, Workers: 2}
	reg := net.Region

	if _, err := EstimateRanges(ctx, net, cfg, PaperTargets()); !errors.Is(err, ErrCanceled) {
		t.Errorf("EstimateRanges: %v, want ErrCanceled", err)
	}
	if _, err := EvaluateFixedRanges(ctx, net, cfg, []float64{100}); !errors.Is(err, ErrCanceled) {
		t.Errorf("EvaluateFixedRanges: %v, want ErrCanceled", err)
	}
	if _, err := EvaluateFixedRange(ctx, net, cfg, 100); !errors.Is(err, ErrCanceled) {
		t.Errorf("EvaluateFixedRange: %v, want ErrCanceled", err)
	}
	if _, err := DirectFixedRange(ctx, net, cfg, 100); !errors.Is(err, ErrCanceled) {
		t.Errorf("DirectFixedRange: %v, want ErrCanceled", err)
	}
	if _, err := EvaluateStructure(ctx, net, cfg, 100); !errors.Is(err, ErrCanceled) {
		t.Errorf("EvaluateStructure: %v, want ErrCanceled", err)
	}
	if _, err := StationaryCriticalSample(ctx, reg, 8, 4, 1, 2); !errors.Is(err, ErrCanceled) {
		t.Errorf("StationaryCriticalSample: %v, want ErrCanceled", err)
	}
}

func TestDeadlineExceededIsTyped(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	net := schedulerTestNet(t, 256)
	cfg := RunConfig{Iterations: 8, Steps: 500, Seed: 2, Workers: 3}
	_, err := EvaluateFixedRange(ctx, net, cfg, 100)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline error must not also be ErrCanceled: %v", err)
	}
}

// TestCancellationLatency is the acceptance check of cooperative
// cancellation: canceling an n=4096 run mid-flight must return within about
// one snapshot's evaluation time, not after the remaining thousands of
// snapshots. The bound is expressed in measured per-snapshot time so it
// scales with the machine and with the race detector's overhead.
func TestCancellationLatency(t *testing.T) {
	leakCheck(t)
	if testing.Short() {
		t.Skip("timing test")
	}
	reg, err := geom.NewRegion(1<<24, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := Network{Nodes: 4096, Region: reg, Model: mobility.PaperWaypoint(1 << 24)}

	// Measure the per-snapshot cost on this build (race detector included).
	start := time.Now()
	if _, err := EvaluateFixedRange(context.Background(), net,
		RunConfig{Iterations: 1, Steps: 4, Seed: 3, Workers: 1}, 1000); err != nil {
		t.Fatal(err)
	}
	perSnap := time.Since(start) / 4

	// A full run would evaluate 4000 snapshots; cancel ~100ms in.
	const steps = 4000
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := EvaluateFixedRange(ctx, net,
			RunConfig{Iterations: 1, Steps: steps, Seed: 3, Workers: runtime.GOMAXPROCS(0)}, 1000)
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	canceledAt := time.Now()
	runErr := <-errCh
	latency := time.Since(canceledAt)
	if !errors.Is(runErr, ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", runErr)
	}
	// Allow a generous multiple of one snapshot (scheduling noise, several
	// evaluators finishing their current snapshot) plus a fixed floor; a
	// non-cooperative run would take steps*perSnap ≈ 1000x longer.
	bound := 25*perSnap + time.Second
	t.Logf("per-snapshot %v, cancellation latency %v (bound %v)", perSnap, latency, bound)
	if latency > bound {
		t.Errorf("cancellation took %v, want <= %v (per-snapshot %v)", latency, bound, perSnap)
	}
}

func TestPanicProvenanceSequential(t *testing.T) {
	leakCheck(t)
	defer faultinject.Activate(faultinject.NewPlan(
		faultinject.PanicAt(faultinject.EvalSnapshot, 1, 2)))()
	net := schedulerTestNet(t, 12)
	cfg := RunConfig{Iterations: 3, Steps: 5, Seed: 4, Workers: 3}
	_, err := EvaluateFixedRange(context.Background(), net, cfg, 100)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Iteration != 1 || pe.Step != 2 {
		t.Errorf("provenance (iter %d, step %d), want (1, 2)", pe.Iteration, pe.Step)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
}

func TestPanicProvenancePooledEvaluator(t *testing.T) {
	leakCheck(t)
	defer faultinject.Activate(faultinject.NewPlan(
		faultinject.PanicAt(faultinject.EvalSnapshot, 0, 7)))()
	net := schedulerTestNet(t, 12)
	// Iterations=1, Workers=3 forces the pipelined snapshot pool (inner=3).
	cfg := RunConfig{Iterations: 1, Steps: 20, Seed: 5, Workers: 3}
	_, err := EvaluateFixedRange(context.Background(), net, cfg, 100)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Iteration != 0 || pe.Step != 7 {
		t.Errorf("provenance (iter %d, step %d), want (0, 7)", pe.Iteration, pe.Step)
	}
}

func TestPanicProvenancePooledProducer(t *testing.T) {
	leakCheck(t)
	defer faultinject.Activate(faultinject.NewPlan(
		faultinject.PanicAt(faultinject.ProducerStep, 0, 5)))()
	net := schedulerTestNet(t, 12)
	cfg := RunConfig{Iterations: 1, Steps: 20, Seed: 6, Workers: 3}
	_, err := DirectFixedRange(context.Background(), net, cfg, 100)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Iteration != 0 || pe.Step != 5 {
		t.Errorf("provenance (iter %d, step %d), want (0, 5)", pe.Iteration, pe.Step)
	}
}

// blockPoolConfig runs one kinetic iteration on the snapshot pool, whose
// tasks are then blocks of up to kineticBlockLen consecutive steps.
func blockPoolConfig(steps int, seed uint64) RunConfig {
	return RunConfig{Iterations: 1, Steps: steps, Seed: seed,
		Workers: max(2, runtime.GOMAXPROCS(0)), Kinetic: KineticOn}
}

// TestBlockPoolPanicProvenance injects an evaluator panic in the middle of
// a kinetic block (blocks start at steps 0, 32, 64, ... on a drift
// trajectory): the error must name that exact step, not the block's first.
func TestBlockPoolPanicProvenance(t *testing.T) {
	leakCheck(t)
	const step = kineticBlockLen + 9
	defer faultinject.Activate(faultinject.NewPlan(
		faultinject.PanicAt(faultinject.EvalSnapshot, 0, step)))()
	net := driftNet(t, 256)
	_, err := EstimateRanges(context.Background(), net, blockPoolConfig(70, 5),
		RangeTargets{TimeFractions: []float64{1}})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Iteration != 0 || pe.Step != step {
		t.Errorf("provenance (iter %d, step %d), want (0, %d)", pe.Iteration, pe.Step, step)
	}
}

// TestBlockPoolProducerPanic panics the producer while it fills a block:
// the pool must stop (no snapshot past the panic is ever evaluated), join
// every goroutine and surface the producer's step.
func TestBlockPoolProducerPanic(t *testing.T) {
	leakCheck(t)
	const step = kineticBlockLen + 13
	evals := faultinject.At(faultinject.EvalSnapshot, faultinject.Any, faultinject.Any, nil)
	defer faultinject.Activate(faultinject.NewPlan(
		faultinject.PanicAt(faultinject.ProducerStep, 0, step), evals))()
	net := driftNet(t, 256)
	_, err := DirectFixedRange(context.Background(), net, blockPoolConfig(400, 6), 100)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Iteration != 0 || pe.Step != step {
		t.Errorf("provenance (iter %d, step %d), want (0, %d)", pe.Iteration, pe.Step, step)
	}
	if n := evals.Fired(); n > step {
		t.Errorf("%d snapshots evaluated, want at most the %d produced before the panic", n, step)
	}
}

// TestBlockPoolCancellationLatency is TestCancellationLatency on the kinetic
// block pool: evaluators check the context between the snapshots of a
// block, so a cancel mid-block must return within about one snapshot, not
// after the rest of a 32-step block on every evaluator. The first half pins
// that exactly: after a cancel issued from inside step 41's evaluation,
// every other evaluator may start at most the one snapshot it had already
// committed to.
func TestBlockPoolCancellationLatency(t *testing.T) {
	leakCheck(t)
	const step = kineticBlockLen + 9
	cfg := blockPoolConfig(400, 3)
	ctx, cancel := context.WithCancel(context.Background())
	var canceled atomic.Bool
	var after atomic.Int64
	deactivate := faultinject.Activate(faultinject.NewPlan(
		faultinject.At(faultinject.EvalSnapshot, 0, step, func(faultinject.Info) {
			cancel()
			canceled.Store(true)
		}),
		faultinject.At(faultinject.EvalSnapshot, faultinject.Any, faultinject.Any, func(in faultinject.Info) {
			if canceled.Load() && in.Step != step {
				after.Add(1)
			}
		})))
	_, err := DirectFixedRange(ctx, driftNet(t, 256), cfg, 100)
	deactivate()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", err)
	}
	if n := after.Load(); n >= int64(cfg.Workers) {
		t.Errorf("%d snapshots started after a mid-block cancel, want < %d (one per other evaluator)", n, cfg.Workers)
	}

	if testing.Short() {
		t.Skip("timing test")
	}
	net := driftNet(t, 4096)

	// A rebuild bounds the cost of any kinetic snapshot (a block start is
	// one, a repair is cheaper).
	start := time.Now()
	if _, err := EvaluateFixedRange(context.Background(), net,
		RunConfig{Iterations: 1, Steps: 4, Seed: 3, Workers: 1, Kinetic: KineticOff}, 30); err != nil {
		t.Fatal(err)
	}
	perSnap := time.Since(start) / 4

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := EvaluateFixedRange(ctx, net, blockPoolConfig(4000, 3), 30)
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	canceledAt := time.Now()
	runErr := <-errCh
	latency := time.Since(canceledAt)
	if !errors.Is(runErr, ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", runErr)
	}
	bound := 25*perSnap + time.Second
	t.Logf("per-snapshot %v, cancellation latency %v (bound %v)", perSnap, latency, bound)
	if latency > bound {
		t.Errorf("cancellation took %v, want <= %v (per-snapshot %v)", latency, bound, perSnap)
	}
}

// panickyModel panics in NewState — before any snapshot work, so the
// catch-all guard must attribute the panic to the iteration with Step -1.
type panickyModel struct{}

func (panickyModel) Name() string    { return "panicky" }
func (panickyModel) Validate() error { return nil }
func (panickyModel) NewState(*xrand.Rand, geom.Region, int, mobility.Placement) (mobility.State, error) {
	panic("model exploded in NewState")
}

func TestPanicOutsideSnapshotWorkHasStepMinusOne(t *testing.T) {
	leakCheck(t)
	net := Network{Nodes: 8, Region: geom.MustRegion(100, 2), Model: panickyModel{}}
	cfg := RunConfig{Iterations: 2, Steps: 5, Seed: 7, Workers: 2}
	_, err := EvaluateFixedRange(context.Background(), net, cfg, 10)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Step != -1 {
		t.Errorf("step %d, want -1 for a panic outside snapshot work", pe.Step)
	}
}

func TestPanicStopsRemainingIterations(t *testing.T) {
	leakCheck(t)
	fired := faultinject.At(faultinject.IterationStart, faultinject.Any, faultinject.Any, nil)
	plan := faultinject.NewPlan(
		faultinject.PanicAt(faultinject.EvalSnapshot, 0, 0),
		fired)
	defer faultinject.Activate(plan)()
	net := schedulerTestNet(t, 12)
	// One worker, many iterations: after the iteration-0 panic aborts the
	// run, the queued iterations must be drained, not simulated.
	cfg := RunConfig{Iterations: 50, Steps: 3, Seed: 8, Workers: 1}
	_, err := EvaluateFixedRange(context.Background(), net, cfg, 100)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if n := fired.Fired(); n >= 50 {
		t.Errorf("all %d iterations started despite the abort", n)
	}
}

// TestAllIterationErrorsSurface pins the errors.Join policy: ordinary
// iteration errors do not cancel sibling iterations, and every failed
// iteration's error is in the returned tree — not just the first.
func TestAllIterationErrorsSurface(t *testing.T) {
	leakCheck(t)
	net := Network{Nodes: 10, Region: geom.MustRegion(100, 2), Model: failingModel{failProb: 1}}
	cfg := RunConfig{Iterations: 4, Steps: 3, Seed: 9, Workers: 2}
	_, err := EvaluateFixedRange(context.Background(), net, cfg, 10)
	if err == nil {
		t.Fatal("no error")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error %T does not unwrap to a list", err)
	}
	errs := joined.Unwrap()
	if len(errs) != 4 {
		t.Fatalf("surfaced %d errors, want one per failed iteration (4): %v", len(errs), err)
	}
	for i, e := range errs {
		if !errors.Is(e, errInjected) {
			t.Errorf("error %d is %v, not the injected one", i, e)
		}
	}
}

// interruptMeta builds the checkpoint identity used by the resume tests.
func interruptMeta(cfg RunConfig, rowWidth int) checkpoint.Meta {
	return checkpoint.Meta{
		Hash:       checkpoint.Hash("lifecycle-test"),
		Seed:       cfg.Seed,
		Iterations: cfg.Iterations,
		RowWidth:   rowWidth,
	}
}

// TestInterruptResumeBitIdentical is the acceptance check of
// checkpoint/resume: a run canceled mid-flight and resumed from its sink
// must be bit-identical to an uninterrupted run, for Workers in {1, 3,
// GOMAXPROCS} and for every checkpointable entry point.
func TestInterruptResumeBitIdentical(t *testing.T) {
	leakCheck(t)
	net := schedulerTestNet(t, 24)
	radii := []float64{80, 160}
	targets := PaperTargets()
	const iters, steps = 8, 12

	type entryPoint struct {
		name     string
		rowWidth int
		run      func(ctx context.Context, cfg RunConfig) (any, error)
	}
	points := []entryPoint{
		{"EvaluateFixedRanges", FixedRangeRowWidth(len(radii)), func(ctx context.Context, cfg RunConfig) (any, error) {
			return EvaluateFixedRanges(ctx, net, cfg, radii)
		}},
		{"EstimateRanges", targets.RowWidth(), func(ctx context.Context, cfg RunConfig) (any, error) {
			return EstimateRanges(ctx, net, cfg, targets)
		}},
		{"EvaluateStructure", iterAccWidth, func(ctx context.Context, cfg RunConfig) (any, error) {
			return EvaluateStructure(ctx, net, cfg, 180)
		}},
		{"DirectFixedRange", FixedRangeRowWidth(1), func(ctx context.Context, cfg RunConfig) (any, error) {
			return DirectFixedRange(ctx, net, cfg, 120)
		}},
	}

	for _, ep := range points {
		t.Run(ep.name, func(t *testing.T) {
			for _, w := range workerCounts() {
				cfg := RunConfig{Iterations: iters, Steps: steps, Seed: 21, Workers: w}
				want, err := ep.run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}

				// Interrupt: cancel the run when iteration 5 starts.
				ctx, cancel := context.WithCancel(context.Background())
				deactivate := faultinject.Activate(faultinject.NewPlan(
					faultinject.At(faultinject.IterationStart, 5, faultinject.Any,
						func(faultinject.Info) { cancel() })))
				sink := checkpoint.New(interruptMeta(cfg, ep.rowWidth))
				ckCfg := cfg
				ckCfg.Sink = sink
				_, err = ep.run(ctx, ckCfg)
				deactivate()
				cancel()
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("workers=%d: interrupted run returned %v, want ErrCanceled", w, err)
				}
				if done := sink.Done(); done == 0 || done >= iters {
					t.Fatalf("workers=%d: checkpoint holds %d of %d iterations after interrupt", w, done, iters)
				}

				// Resume from the sink; the spliced result must be bit-identical.
				got, err := ep.run(context.Background(), ckCfg)
				if err != nil {
					t.Fatalf("workers=%d: resume failed: %v", w, err)
				}
				if !sameResult(got, want) {
					t.Errorf("workers=%d: resumed result differs from uninterrupted run", w)
				}
				if done := sink.Done(); done != iters {
					t.Errorf("workers=%d: checkpoint holds %d of %d iterations after resume", w, done, iters)
				}
			}
		})
	}
}

// TestResumeAcrossWorkerCounts interrupts at one parallelism and resumes at
// another: the checkpoint must splice exactly because results never depend
// on Workers.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	leakCheck(t)
	net := schedulerTestNet(t, 24)
	cfg := RunConfig{Iterations: 6, Steps: 10, Seed: 22, Workers: 1}
	want, err := EvaluateFixedRange(context.Background(), net, cfg, 120)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	deactivate := faultinject.Activate(faultinject.NewPlan(
		faultinject.At(faultinject.IterationStart, 3, faultinject.Any,
			func(faultinject.Info) { cancel() })))
	sink := checkpoint.New(interruptMeta(cfg, FixedRangeRowWidth(1)))
	interrupted := cfg
	interrupted.Sink = sink
	interrupted.Workers = 4
	_, err = EvaluateFixedRange(ctx, net, interrupted, 120)
	deactivate()
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted run returned %v", err)
	}

	resumed := interrupted
	resumed.Workers = 2
	got, err := EvaluateFixedRange(context.Background(), net, resumed, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Error("resume at a different worker count is not bit-identical")
	}
}

// TestChaosSoakInterruptResume is the fault-injection soak test: seeded
// rounds of interrupt -> checkpoint to disk -> (sometimes corrupt the file)
// -> reload -> resume, asserting the final result of every round is
// bit-identical to an uninterrupted run. The CI chaos-smoke job runs exactly
// this test under -race.
func TestChaosSoakInterruptResume(t *testing.T) {
	leakCheck(t)
	net := schedulerTestNet(t, 24)
	const iters, steps = 8, 10
	radii := []float64{80, 160}
	baseCfg := RunConfig{Iterations: iters, Steps: steps, Seed: 31}
	want, err := EvaluateFixedRanges(context.Background(), net, baseCfg, radii)
	if err != nil {
		t.Fatal(err)
	}
	meta := interruptMeta(baseCfg, FixedRangeRowWidth(len(radii)))

	const rounds = 6
	chaos := xrand.New(0xC4A05)
	for round := 0; round < rounds; round++ {
		path := filepath.Join(t.TempDir(), "soak.ckpt")
		file := checkpoint.New(meta)
		var got []FixedRangeResult
		const maxAttempts = 20
		attempt := 0
		for ; attempt < maxAttempts; attempt++ {
			cfg := baseCfg
			cfg.Workers = 1 + chaos.Intn(4)
			cfg.Sink = file

			// All but the last few attempts inject a cancellation at a random
			// iteration start; un-injected attempts guarantee completion.
			var deactivate func()
			if attempt < maxAttempts-2 {
				cancelIter := chaos.Intn(iters)
				ctx, cancel := context.WithCancel(context.Background())
				deactivate = faultinject.Activate(faultinject.NewPlan(
					faultinject.At(faultinject.IterationStart, cancelIter, faultinject.Any,
						func(faultinject.Info) { cancel() })))
				res, err := EvaluateFixedRanges(ctx, net, cfg, radii)
				deactivate()
				cancel()
				if err == nil {
					got = res // cancel iteration was already checkpointed: run completed
					break
				}
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("round %d attempt %d: %v", round, attempt, err)
				}
			} else {
				res, err := EvaluateFixedRanges(context.Background(), net, cfg, radii)
				if err != nil {
					t.Fatalf("round %d attempt %d: %v", round, attempt, err)
				}
				got = res
				break
			}

			// Persist progress, sometimes corrupt the file, then reload —
			// modeling a process restart with an unreliable disk.
			if err := file.Save(path); err != nil {
				t.Fatalf("round %d attempt %d: save: %v", round, attempt, err)
			}
			switch uint64(chaos.Intn(4)) {
			case 0:
				data := file.Encode()
				if err := faultinject.Truncate(path, chaos.Intn(len(data))); err != nil {
					t.Fatal(err)
				}
			case 1:
				data := file.Encode()
				if err := faultinject.FlipByte(path, chaos.Intn(len(data)), byte(1+chaos.Intn(255))); err != nil {
					t.Fatal(err)
				}
			}
			loaded, err := checkpoint.Load(path)
			if err != nil {
				// Corruption detected: the run restarts from scratch — never
				// from silently spliced garbage.
				file = checkpoint.New(meta)
				continue
			}
			if err := loaded.Meta().Check(meta); err != nil {
				file = checkpoint.New(meta)
				continue
			}
			file = loaded
		}
		if got == nil {
			t.Fatalf("round %d: run never completed in %d attempts", round, maxAttempts)
		}
		if !sameResult(got, want) {
			t.Errorf("round %d: soaked result differs from uninterrupted run (completed at attempt %d)", round, attempt)
		}
	}
}
