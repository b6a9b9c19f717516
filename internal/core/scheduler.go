package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"adhocnet/internal/faultinject"
	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
	"adhocnet/internal/spatial"
	"adhocnet/internal/xrand"
)

// This file implements the two-level simulation scheduler. The outer level
// distributes iterations over workers exactly as before; the inner level
// additionally parallelizes the snapshots *within* one iteration, so that the
// paper-faithful "few iterations, many steps, large n" regime saturates all
// cores instead of idling on one.
//
// Mobility is inherently sequential (step t+1 depends on step t), so the
// inner level splits trajectory *generation* from profile *evaluation*: a
// cheap sequential producer drives the mobility model and copies each
// snapshot's positions into a bounded ring of position buffers, a pool of
// workers evaluates snapshots concurrently (each with its own
// graph.Workspace), and an ordered reduction applies the per-step results in
// step order. Determinism is structural:
//
//   - the producer performs exactly the Step() sequence of the sequential
//     code, on the iteration's private random stream;
//   - eval is a pure function of (step, positions) given private scratch;
//   - merge observes results in step order, whatever order workers finish.
//
// Hence results are bit-identical for every Workers value, which the
// scheduler tests pin down.
//
// Lifecycle contracts (see lifecycle.go and DESIGN.md "Run lifecycle"):
//
//   - Cancellation is cooperative with snapshot granularity: the producer,
//     every evaluator and the reducer check the run context between
//     snapshots, so a canceled run returns within about one snapshot's
//     evaluation time, with the ring drained and all goroutines joined.
//   - A panic in any worker is converted to *PanicError with (iteration,
//     step) provenance, cancels its siblings, and shuts the pool down; the
//     panicking worker's workspace is abandoned, not repooled.
//   - Iteration-level errors do not cancel sibling iterations (they are
//     independent Monte-Carlo trials); all of them are surfaced together
//     via errors.Join. Panics and context cancellation do cancel.

// Levels reports how the configuration's worker budget is split across the
// two scheduler levels: outer is the number of iterations simulated
// concurrently, inner the base number of snapshot evaluators each of those
// iterations may use, and spare how many of the outer workers receive one
// evaluator beyond the base so the whole budget is spent (spare < outer;
// runIterations hands the extras to the first outer workers). This is the
// single source of truth for the split — the CLIs render it and the
// scheduler executes it. Results never depend on the split.
func (c RunConfig) Levels() (outer, inner, spare int) {
	w := c.workers()
	outer = w
	if c.Iterations > 0 && outer > c.Iterations {
		outer = c.Iterations
	}
	if outer < 1 {
		outer = 1
	}
	inner = w / outer
	if inner < 1 {
		inner = 1
	}
	// An iteration of S snapshots can never use more than S evaluators
	// (runSnapshotPool runs at most one per block, and a block holds at
	// least one snapshot), so don't advertise them.
	if c.Steps > 0 && inner > c.Steps {
		inner = c.Steps
	}
	spare = w - inner*outer
	if spare < 0 || (c.Steps > 0 && inner+1 > c.Steps) {
		spare = 0
	}
	return outer, inner, spare
}

// ResolvedWorkers returns the worker budget with the Workers=0 default
// applied (GOMAXPROCS); the single source of truth the CLIs display.
func (c RunConfig) ResolvedWorkers() int { return c.workers() }

// FormatLevels renders the scheduler split for display: "OxI" when the
// budget divides evenly, "OxI-J" when spare workers give some iterations one
// more snapshot evaluator.
func (c RunConfig) FormatLevels() string {
	outer, inner, spare := c.Levels()
	if spare > 0 {
		return fmt.Sprintf("%dx%d-%d", outer, inner, inner+1)
	}
	return fmt.Sprintf("%dx%d", outer, inner)
}

// iteration is what the driver hands one outer iteration's body: the
// iteration index, its private seed-derived random stream, the worker-owned
// graph.Workspace reused across that worker's iterations, the inner
// snapshot-worker budget, and the run parameters and metrics bundle that
// runTrajectory needs.
type iteration struct {
	index   int
	rng     *xrand.Rand
	ws      *graph.Workspace
	inner   int
	steps   int
	kinetic KineticMode
	rm      *runMetrics
}

// rowCodec is an entry point's checkpoint-row layout for its per-iteration
// result A: encode appends exactly width values to row, decode is its
// inverse. The layout is private to the entry point; the driver only checks
// the width.
type rowCodec[A any] struct {
	width  int
	encode func(row []float64, a A) []float64
	decode func(row []float64) A
}

// runIterations is the one iteration driver behind every core entry point.
// It validates cfg, then runs iterate for every iteration index with a
// private, deterministically derived random stream, using a bounded worker
// pool (the scheduler's outer level), and returns the per-iteration results
// in iteration order. Each worker owns one graph.Workspace that iterate
// reuses across its iterations, and receives the inner snapshot-worker
// budget it may spend per iteration (iterate forwards it to runTrajectory).
// Results must not depend on which worker runs which iteration, nor on the
// inner budget, which is what keeps RunConfig determinism independent of
// Workers.
//
// When cfg.Sink is set, iterations the sink already holds are decoded with
// codec on the calling goroutine and never simulated — the remaining
// iterations use the same seed-derived streams they would in a full run, so
// a resumed run is bit-identical to an uninterrupted one — and every newly
// completed iteration is encoded and committed. With a nil Sink the codec is
// never called, so no per-iteration row is allocated.
//
// Error policy: an iteration that fails with an ordinary error is recorded
// and the remaining iterations still run (independent Monte-Carlo trials);
// every recorded error is returned via errors.Join. A panic (converted to
// *PanicError by runIteration) or a canceled ctx stops the run promptly:
// queued iterations are not started, in-flight ones stop at the next
// snapshot boundary, and all workers are always joined before returning.
func runIterations[A any](ctx context.Context, cfg RunConfig, codec rowCodec[A],
	iterate func(ctx context.Context, it iteration) (A, error),
) ([]A, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxError(ctx)
	}
	rm := newRunMetrics(cfg.Obs)
	rm.plannedIterations(cfg.Iterations)
	seeds := IterationSeeds(cfg)
	results := make([]A, cfg.Iterations)

	// Restore already-completed iterations before spawning anything, in
	// iteration order on this goroutine, so restoration is deterministic.
	var skip []bool
	if cfg.Sink != nil {
		skip = make([]bool, cfg.Iterations)
		for i := range skip {
			row, ok := cfg.Sink.Lookup(i)
			if !ok {
				continue
			}
			if len(row) != codec.width {
				return nil, fmt.Errorf("core: checkpoint row for iteration %d has %d values, want %d",
					i, len(row), codec.width)
			}
			results[i] = codec.decode(row)
			skip[i] = true
			rm.restoredIteration()
		}
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	outer, base, extra := cfg.Levels()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	record := func(err error, abort bool) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
		if abort {
			cancel(err)
		}
	}
	next := make(chan int)
	for w := 0; w < outer; w++ {
		inner := base
		if w < extra {
			inner++
		}
		wg.Add(1)
		go func(inner int) {
			defer wg.Done()
			ws := graph.NewWorkspace()
			ws.SetSpatialBackend(cfg.Spatial)
			for iter := range next {
				if runCtx.Err() != nil {
					continue // canceled: drain the queue without simulating
				}
				it := iteration{index: iter, rng: seeds[iter], ws: ws, inner: inner,
					steps: cfg.Steps, kinetic: cfg.Kinetic, rm: rm}
				a, err := runIteration(runCtx, it, iterate)
				rm.flushWorkspace(ws)
				if err != nil {
					if isCancellation(err) {
						continue
					}
					rm.iterationError(err)
					var pe *PanicError
					record(err, errors.As(err, &pe))
					continue
				}
				results[iter] = a
				if cfg.Sink != nil {
					cfg.Sink.Commit(iter, codec.encode(make([]float64, 0, codec.width), a))
				}
				rm.iterationDone()
			}
		}(inner)
	}
dispatch:
	for i := 0; i < cfg.Iterations; i++ {
		if skip != nil && skip[i] {
			continue
		}
		select {
		case next <- i:
		case <-runCtx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctxError(ctx)
	}
	return results, nil
}

// runIteration invokes iterate with a catch-all panic guard: a panic
// anywhere in the iteration that is not already attributed to a snapshot
// step (those are recovered closer to the fault, with step provenance)
// surfaces as a *PanicError with Step = -1.
func runIteration[A any](ctx context.Context, it iteration,
	iterate func(ctx context.Context, it iteration) (A, error),
) (a A, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(it.index, -1, r)
		}
	}()
	faultinject.Fire(faultinject.IterationStart, it.index, -1)
	return iterate(ctx, it)
}

// runTrajectory simulates one iteration of the network: it drives the
// mobility model for the given number of snapshots (the initial placement
// counts as the first) and, for every snapshot, calls eval with the node
// positions and then merge with eval's result, in step order.
//
//   - newSlot allocates one reusable per-snapshot result slot; the scheduler
//     owns a bounded ring of them, so eval must write every field it reads.
//   - eval runs concurrently on up to inner goroutines. It must be a pure
//     function of (step, pts) using only the passed workspace and slot; pts
//     and the slot are borrowed until merge consumes the slot.
//   - merge is called on the calling goroutine, strictly in increasing step
//     order, never concurrently; it may touch per-iteration state freely.
//
// With inner <= 1 the scheduler degenerates to the sequential loop of the
// per-iteration path (no goroutines, no copies, positions handed to eval
// directly), which is also the reference the determinism tests compare the
// pooled path against. Both paths honor ctx between snapshots and convert
// panics in eval/merge/Step into *PanicError values carrying (iter, step).
//
// The kinetic mode restructures the same loops instead of replacing them:
// when it.kinetic.enabled says so, the mobility state is stepped through a
// Mover (a native one, or any State adapted through TrackMoves), the
// evaluating workspaces are armed for incremental repair, and eval receives
// each step's moved set. A moved = nil call (the initial placement, which is
// not a displacement) evaluates from scratch and primes the workspace
// caches. The sequential loop passes nil only at snapshot 0; the snapshot
// pool hands out blocks of consecutive steps and passes nil at every block
// start (see runSnapshotPool).
func runTrajectory[R any](ctx context.Context, it iteration, net Network,
	newSlot func() R,
	eval func(step int, pts []geom.Point, moved []int32, ws *graph.Workspace, out R),
	merge func(step int, out R),
) error {
	iter, steps, inner, ws, rm := it.index, it.steps, it.inner, it.ws, it.rm
	state, err := net.Model.NewState(it.rng, net.Region, net.Nodes, net.Placement)
	if err != nil {
		return err
	}
	var mover mobility.Mover
	if it.kinetic.enabled(steps, inner) {
		// Step through the Mover so displacement tracking runs even for
		// third-party states (TrackMoves returns native Movers unchanged).
		mover = mobility.TrackMoves(state)
		state = mover
	}
	if inner > 1 && steps > 1 {
		rm.pooledTrajectory()
		return runSnapshotPool(ctx, iter, state, mover, net.Nodes, steps, inner, ws.SpatialBackend(), rm, newSlot, eval, merge)
	}
	rm.sequentialTrajectory()
	ws.SetKinetic(mover != nil)
	out := newSlot()
	for t := 0; t < steps; t++ {
		if ctx.Err() != nil {
			return ctxError(ctx)
		}
		var moved []int32
		if t > 0 {
			start := rm.timerStart()
			if err := guardedStep(iter, t, state); err != nil {
				return err
			}
			rm.observeProduce(start)
			if mover != nil {
				moved = mover.Moved()
			}
		}
		start := rm.timerStart()
		if err := guardedEval(iter, t, state.Positions(), moved, ws, out, eval); err != nil {
			return err
		}
		rm.observeEval(start)
		start = rm.timerStart()
		if err := guardedMerge(iter, t, out, merge); err != nil {
			return err
		}
		rm.observeMerge(start)
	}
	return nil
}

// kineticBlockLen is the most consecutive steps one ring entry carries on
// the kinetic pool. Every block start re-primes the evaluator's caches (a
// rebuild, about 1.3x a repair), so 32 steps keep that overhead near 1% of a
// repair-dominated trajectory while a 512-step run still splits into 16
// blocks to balance across evaluators.
const kineticBlockLen = 32

// snapBlock is one ring entry of the snapshot pool: the consecutive
// snapshots first .. first+steps-1. pts holds the positions at step first;
// step first+k (k >= 1) is a delta log entry, the nodes moved[ends[k-1]:
// ends[k]] now at at[ends[k-1]:ends[k]], which the evaluator applies to pts
// in place. The producer ends a block before its delta log would exceed one
// entry per node, so an entry never holds more than two full position sets.
// On the rebuild path every block is a single snapshot with no deltas.
type snapBlock struct {
	first, steps int
	pts          []geom.Point
	ends         []int
	moved        []int32
	at           []geom.Point
}

// start makes the block begin at step t with a full copy of pos.
func (b *snapBlock) start(t int, pos []geom.Point) {
	b.first, b.steps = t, 1
	copy(b.pts, pos)
	b.ends = append(b.ends[:0], 0)
	b.moved, b.at = b.moved[:0], b.at[:0]
}

// push appends the next step as the moved nodes' new positions in pos.
func (b *snapBlock) push(moved []int32, pos []geom.Point) {
	b.moved = append(b.moved, moved...)
	for _, m := range moved {
		b.at = append(b.at, pos[m])
	}
	b.ends = append(b.ends, len(b.moved))
	b.steps++
}

// advance applies step first+k's deltas (k >= 1) to pts and returns the
// step's moved set, never nil (nil would tell the workspace to rebuild).
func (b *snapBlock) advance(k int) []int32 {
	lo, hi := b.ends[k-1], b.ends[k]
	moved := b.moved[lo:hi:hi]
	for i, m := range moved {
		b.pts[m] = b.at[lo+i]
	}
	return moved
}

// blockRings pools ring storage across pooled-trajectory iterations, so the
// mixed regime (several concurrent iterations, each with an inner pool) does
// not reallocate it per iteration. The producer overwrites a block's
// contents before every use, so pooling cannot leak state between
// iterations — which also makes the ring safe to repool after a panic
// (unlike a graph.Workspace, whose internal invariants a panic may have
// broken mid-update).
var blockRings = sync.Pool{New: func() any { return &blockRing{} }}

type blockRing struct {
	blocks []snapBlock
}

// resize returns ring blocks of nodes positions each, with a delta log of
// capacity nodes when deltas is set, reusing capacity.
func (r *blockRing) resize(ring, nodes int, deltas bool) []snapBlock {
	if cap(r.blocks) < ring {
		r.blocks = make([]snapBlock, ring)
	}
	r.blocks = r.blocks[:ring]
	for i := range r.blocks {
		b := &r.blocks[i]
		if cap(b.pts) < nodes {
			b.pts = make([]geom.Point, nodes)
		}
		b.pts = b.pts[:nodes]
		if deltas && cap(b.moved) < nodes {
			b.moved = make([]int32, 0, nodes)
			b.at = make([]geom.Point, 0, nodes)
		}
	}
	return r.blocks
}

// runSnapshotPool is the pipelined inner level of runTrajectory. Its tasks
// are blocks of consecutive snapshots (snapBlock). Without a mover every
// block is one snapshot, evaluated from scratch. With one (the kinetic
// path) a block runs up to kineticBlockLen steps: its evaluator calls eval
// with moved = nil at the block's first step, which rebuilds and primes the
// workspace caches, then applies each later step's deltas to the same
// buffer in place and calls eval with that step's moved set, which repairs.
// The caches bind to the buffer by identity and every block start
// re-primes, so a ring entry's reuse by a later block is safe; results are
// bit-identical to the rebuild path by the workspace's kinetic contract.
//
// Buffer-ring contract: the ring holds 2*inner blocks (fewer when the
// trajectory has fewer full blocks) and window = ring*blockLen result slots. The producer may
// start a block only after the block that last used its ring entry has been
// fully merged (the credit channel), so at most ring blocks — window steps —
// are in flight past the merge frontier, and slot and done-flag t%window
// are never rewritten before their previous tenant was consumed. All
// hand-offs are channel sends, so every access is ordered by a
// happens-before edge (the -race CI job runs this path).
//
// Shutdown protocol: poolCtx is canceled by the caller's ctx, by a panic in
// any worker (recorded first, so the panic error — not a bare cancellation —
// is what surfaces), or not at all. Because every channel holds at most its
// ring's or window's in-flight entries, no send can block past
// cancellation: the producer checks Done between steps and while waiting for
// credits, evaluators check it between snapshots and drain the closed task
// channel without evaluating, and the reducer stops merging. The pool always
// joins every goroutine before returning — no leaks on any path. An
// evaluator that panicked abandons its pooled workspace instead of releasing
// it (the panic may have left the workspace mid-update).
func runSnapshotPool[R any](ctx context.Context, iter int, state mobility.State, mover mobility.Mover,
	nodes, steps, inner int, backend spatial.Backend, rm *runMetrics,
	newSlot func() R,
	eval func(step int, pts []geom.Point, moved []int32, ws *graph.Workspace, out R),
	merge func(step int, out R),
) error {
	blockLen := 1
	if mover != nil {
		blockLen = kineticBlockLen
	}
	ring := 2 * inner
	if maxBlocks := (steps + blockLen - 1) / blockLen; ring > maxBlocks {
		ring = maxBlocks
	}
	if inner > ring {
		inner = ring // more evaluators than in-flight blocks can't help
	}
	window := min(ring*blockLen, steps)
	poolCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	done := poolCtx.Done()
	var (
		errMu sync.Mutex
		errs  []error
	)
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
		cancel(err)
	}

	br := blockRings.Get().(*blockRing)
	defer blockRings.Put(br)
	blocks := br.resize(ring, nodes, mover != nil)
	slots := make([]R, window)
	for i := range slots {
		slots[i] = newSlot()
	}
	credits := make(chan struct{}, ring) // one per free ring entry
	for i := 0; i < ring; i++ {
		credits <- struct{}{}
	}
	tasks := make(chan int, ring)     // ring entries holding a complete block
	results := make(chan int, window) // step indices with a filled slot

	// Producer: the only goroutine that touches the mobility state. It
	// performs exactly the Step() sequence of the sequential path. Deferred
	// in LIFO order: the catch-all recover runs first (copy/ring bookkeeping
	// bugs must not crash the process), then tasks is closed so evaluators
	// always see end-of-input.
	go func() {
		t := 0
		defer close(tasks)
		defer func() {
			if r := recover(); r != nil {
				fail(newPanicError(iter, t, r))
			}
		}()
		e, open := 0, false // ring entry being filled, and whether it holds a block
		send := func() {
			rm.observeRing(ring - len(credits))
			tasks <- e
			e, open = (e+1)%ring, false
		}
		for ; t < steps; t++ {
			var moved []int32
			if t > 0 {
				if poolCtx.Err() != nil {
					return
				}
				start := rm.timerStart()
				if err := guardedStep(iter, t, state); err != nil {
					fail(err)
					return
				}
				rm.observeProduce(start)
				if mover != nil {
					moved = mover.Moved()
				}
			}
			if open && len(blocks[e].moved)+len(moved) > nodes {
				send() // the delta log is full: this step starts the next block
			}
			b := &blocks[e]
			if open {
				b.push(moved, state.Positions())
			} else {
				select {
				case <-credits:
				default:
					// No free ring entry: the producer is ahead of the merge
					// frontier and stalls on backpressure. The extra
					// non-blocking attempt above keeps the uncontended path
					// select-free.
					stallStart := rm.timerStart()
					select {
					case <-credits:
						rm.producerStalled(stallStart)
					case <-done:
						return
					}
				}
				b.start(t, state.Positions())
				open = true
			}
			if b.steps == blockLen {
				send()
			}
		}
		if open {
			send()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < inner; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := graph.AcquireWorkspace()
			// The snapshot pool inherits the run's spatial policy; the
			// backend cannot affect results (see RunConfig.Spatial), so the
			// pool's ordered-reduction determinism is untouched.
			ws.SetSpatialBackend(backend)
			ws.SetKinetic(mover != nil)
			healthy := true
			defer func() {
				if healthy {
					rm.flushWorkspace(ws)
					graph.ReleaseWorkspace(ws)
				}
			}()
			for e := range tasks {
				// Once the block's last result is sent the reducer may hand
				// the entry back to the producer, so read its extent first.
				b := &blocks[e]
				first, n := b.first, b.steps
				for k := 0; k < n && healthy; k++ {
					if poolCtx.Err() != nil {
						break // canceled: drain the ring without evaluating
					}
					var moved []int32
					if k > 0 {
						moved = b.advance(k)
					}
					t := first + k
					start := rm.timerStart()
					if err := guardedEval(iter, t, b.pts, moved, ws, slots[t%window], eval); err != nil {
						healthy = false // the workspace may be mid-update: abandon it
						fail(err)
						break
					}
					rm.observeEval(start)
					results <- t
				}
			}
		}()
	}

	// Ordered reduction on the caller's goroutine: workers finish in any
	// order; merge fires strictly in step order. In-flight steps all lie in
	// [next, next+window), so the done window cannot alias two steps. A
	// block's ring entry is credited back once its last step is merged.
	filled := make([]bool, window)
	blk := 0 // ring entry of the block holding step next
reduce:
	for next := 0; next < steps; {
		var t int
		select {
		case t = <-results:
		case <-done:
			break reduce
		}
		rm.observeLag(t - next)
		filled[t%window] = true
		for next < steps && filled[next%window] {
			filled[next%window] = false
			start := rm.timerStart()
			if err := guardedMerge(iter, next, slots[next%window], merge); err != nil {
				fail(err)
				break reduce
			}
			rm.observeMerge(start)
			next++
			if b := &blocks[blk]; next == b.first+b.steps {
				credits <- struct{}{}
				blk = (blk + 1) % ring
			}
		}
	}
	wg.Wait()
	// wg.Wait returning implies the task channel is closed, which implies
	// the producer's deferred recover already ran: errs is complete.
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if poolCtx.Err() != nil {
		return ctxError(poolCtx)
	}
	return nil
}
