package core

// Run-lifecycle support: typed cancellation errors, panic containment with
// (iteration, step) provenance, and the iteration sink that checkpoint/
// resume plugs into. The scheduler (scheduler.go) enforces the contracts
// declared here; DESIGN.md ("Run lifecycle") documents them.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"adhocnet/internal/faultinject"
	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
)

// ErrCanceled reports a run stopped by context cancellation before all
// iterations completed. Test with errors.Is. A canceled run returns no
// results; attach an IterationSink (RunConfig.Sink) to keep the completed
// iterations and resume later.
var ErrCanceled = errors.New("core: run canceled")

// ErrDeadlineExceeded reports a run stopped by a context deadline. Test with
// errors.Is.
var ErrDeadlineExceeded = errors.New("core: run deadline exceeded")

// PanicError is a panic recovered inside the simulation, converted to an
// error with provenance: which iteration and which snapshot step the
// panicking code was working on. Evaluator and producer panics never crash
// the process — they cancel the run's sibling workers and surface here,
// with the worker pool fully shut down (no leaked goroutines) and the
// panicking worker's scratch workspace abandoned rather than repooled.
type PanicError struct {
	// Iteration is the outer Monte-Carlo iteration being simulated.
	Iteration int
	// Step is the snapshot step being evaluated, or -1 when the panic
	// happened outside per-snapshot work (e.g. in the mobility model's
	// NewState or in per-iteration reduction).
	Step int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Step >= 0 {
		return fmt.Sprintf("core: panic in iteration %d, step %d: %v", e.Iteration, e.Step, e.Value)
	}
	return fmt.Sprintf("core: panic in iteration %d: %v", e.Iteration, e.Value)
}

func newPanicError(iter, step int, value any) *PanicError {
	return &PanicError{Iteration: iter, Step: step, Value: value, Stack: debug.Stack()}
}

// ctxError maps a done context to the package's typed cancellation errors.
// When the context was canceled because a sibling worker failed (the cause
// carries the original error), the cause is quoted for diagnostics but NOT
// wrapped: the original error is surfaced separately by the scheduler, and
// double-reporting it here would make errors.Join duplicate it.
func ctxError(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	kind := ErrCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		kind = ErrDeadlineExceeded
	}
	if cause := context.Cause(ctx); cause != nil && !errors.Is(err, cause) && !errors.Is(cause, err) {
		return fmt.Errorf("%w (cause: %v)", kind, cause)
	}
	return kind
}

// isCancellation reports whether err only says "the run was told to stop" —
// such errors are not collected by the scheduler (every stopped worker would
// produce one), only the typed cancellation result of the run is.
func isCancellation(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IterationSink records completed outer iterations, enabling checkpoint and
// resume (see internal/checkpoint, whose *File satisfies this interface).
//
// A row is a flat []float64 encoding everything the entry point reduced out
// of one iteration; its layout is private to the entry point that produced
// it. Before simulating, the scheduler asks the sink about every iteration:
// a Lookup hit restores the row and skips the simulation (the per-iteration
// random streams are derived from the seed, so skipping is exact); a
// completed iteration is handed to Commit, which may be called concurrently
// from several workers. Iterations that error or are canceled mid-flight
// are never committed.
type IterationSink interface {
	Lookup(iter int) ([]float64, bool)
	Commit(iter int, row []float64)
}

// guardedEval runs eval for one snapshot with panic containment: a panic
// becomes a *PanicError carrying (iter, step). The fault-injection point
// fires inside the guard, so injected evaluator panics follow exactly the
// real recovery path. moved carries the step's displacement set on the
// kinetic path and nil everywhere else (the rebuild path, the first snapshot
// of a trajectory or of a snapshot-pool block); nil tells the workspace's
// kinetic entry points to evaluate from scratch.
func guardedEval[R any](iter, step int, pts []geom.Point, moved []int32, ws *graph.Workspace, out R,
	eval func(step int, pts []geom.Point, moved []int32, ws *graph.Workspace, out R),
) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(iter, step, r)
		}
	}()
	faultinject.Fire(faultinject.EvalSnapshot, iter, step)
	eval(step, pts, moved, ws, out)
	return nil
}

// guardedMerge runs merge for one snapshot with panic containment.
func guardedMerge[R any](iter, step int, out R, merge func(step int, out R)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(iter, step, r)
		}
	}()
	merge(step, out)
	return nil
}

// guardedStep advances the mobility state to the given step with panic
// containment (hostile or buggy models must not crash the run).
func guardedStep(iter, step int, state mobility.State) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(iter, step, r)
		}
	}()
	faultinject.Fire(faultinject.ProducerStep, iter, step)
	state.Step()
	return nil
}
