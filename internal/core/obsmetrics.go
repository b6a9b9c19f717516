package core

import (
	"errors"
	"time"

	"adhocnet/internal/graph"
	"adhocnet/internal/obs"
	"adhocnet/internal/spatial"
)

// Scheduler metric names not already shared through internal/obs (those used
// by the progress printer live there). All follow the catalog convention
// documented in DESIGN.md "Observability".
const (
	metricIterationErrors  = "adhocnet_run_iteration_errors_total"
	metricPanicsRecovered  = "adhocnet_run_panics_recovered_total"
	metricSeqTrajectories  = "adhocnet_scheduler_sequential_trajectories_total"
	metricPoolTrajectories = "adhocnet_scheduler_pooled_trajectories_total"
	metricProducerStalls   = "adhocnet_scheduler_producer_stalls_total"
	metricStallNs          = "adhocnet_scheduler_producer_stall_ns"
	metricRingOccupancy    = "adhocnet_scheduler_ring_occupancy"
	metricReductionLag     = "adhocnet_scheduler_reduction_lag"
)

// runMetrics is the scheduler's bundle of pre-registered metric handles — the
// bridge between RunConfig.Obs and the hot loops. Three observability states
// map onto it:
//
//   - cfg.Obs == nil   -> rm == nil: every method returns on the nil check,
//     the absent fast path.
//   - disabled registry -> rm != nil, every handle nil and timed false: the
//     handles' nil-receiver no-ops make each call a test-and-return, the
//     near-nop state the overhead benchmark pins.
//   - live registry    -> real handles, timed true: counters are atomic adds;
//     wall-clock reads (obs.Clock, gated on timed) feed the phase histograms.
//
// Call sites never branch on observability themselves — they call rm
// unconditionally, which keeps the hot loops' shape identical in all three
// states. Counters derived from workspaces are deterministic; only the
// timing/occupancy metrics vary between identical runs.
type runMetrics struct {
	timed bool // wall-clock reads allowed (live registry only)

	iterations *obs.Counter
	restored   *obs.Counter
	planned    *obs.Gauge
	iterErrors *obs.Counter
	panics     *obs.Counter

	seqTraj    *obs.Counter
	pooledTraj *obs.Counter
	produceNs  *obs.Histogram
	evalNs     *obs.Histogram
	mergeNs    *obs.Histogram
	stalls     *obs.Counter
	stallNs    *obs.Histogram
	ringOcc    *obs.Histogram
	lag        *obs.Histogram

	// Workspace counter handles, in the flushWorkspace order.
	mstRepairs    *obs.Counter
	mstRebuilds   *obs.Counter
	mstDirty      *obs.Counter
	mstFragments  *obs.Counter
	mstRounds     *obs.Counter
	mstCandidates *obs.Counter
	mstKept       *obs.Counter
	certified     *obs.Counter
	movedPoints   *obs.Counter
	gridPicks     *obs.Counter
	treePicks     *obs.Counter
	gridStats     spatialCounters
	treeStats     spatialCounters
}

type spatialCounters struct {
	rebuilds       *obs.Counter
	updates        *obs.Counter
	updateRebuilds *obs.Counter
	pairQueries    *obs.Counter
	nearQueries    *obs.Counter
	minPairsRounds *obs.Counter
}

func newSpatialCounters(r *obs.Registry, backend string) spatialCounters {
	name := func(what string) string {
		return "adhocnet_spatial_" + what + `_total{backend="` + backend + `"}`
	}
	return spatialCounters{
		rebuilds:       r.Counter(name("rebuilds")),
		updates:        r.Counter(name("updates")),
		updateRebuilds: r.Counter(name("update_rebuilds")),
		pairQueries:    r.Counter(name("pair_queries")),
		nearQueries:    r.Counter(name("near_queries")),
		minPairsRounds: r.Counter(name("minpairs_rounds")),
	}
}

func (sc *spatialCounters) flush(s spatial.Stats) {
	sc.rebuilds.Add(s.Rebuilds)
	sc.updates.Add(s.Updates)
	sc.updateRebuilds.Add(s.UpdateRebuilds)
	sc.pairQueries.Add(s.PairQueries)
	sc.nearQueries.Add(s.NearQueries)
	sc.minPairsRounds.Add(s.MinPairsRounds)
}

// newRunMetrics resolves cfg.Obs into a handle bundle; nil registry yields a
// nil bundle (the absent fast path). A disabled registry yields nil handles
// throughout, so the bundle's methods degrade to near-nops.
func newRunMetrics(r *obs.Registry) *runMetrics {
	if r == nil {
		return nil
	}
	return &runMetrics{
		timed: r.Enabled(),

		iterations: r.Counter(obs.MetricIterationsTotal),
		restored:   r.Counter(obs.MetricIterationsRestored),
		planned:    r.Gauge(obs.MetricIterationsPlanned),
		iterErrors: r.Counter(metricIterationErrors),
		panics:     r.Counter(metricPanicsRecovered),

		seqTraj:    r.Counter(metricSeqTrajectories),
		pooledTraj: r.Counter(metricPoolTrajectories),
		produceNs:  r.Histogram(obs.MetricProduceNs),
		evalNs:     r.Histogram(obs.MetricEvalNs),
		mergeNs:    r.Histogram(obs.MetricMergeNs),
		stalls:     r.Counter(metricProducerStalls),
		stallNs:    r.Histogram(metricStallNs),
		ringOcc:    r.Histogram(metricRingOccupancy),
		lag:        r.Histogram(metricReductionLag),

		mstRepairs:    r.Counter("adhocnet_kinetic_mst_repairs_total"),
		mstRebuilds:   r.Counter("adhocnet_kinetic_mst_rebuilds_total"),
		mstDirty:      r.Counter("adhocnet_kinetic_mst_dirty_fallbacks_total"),
		mstFragments:  r.Counter("adhocnet_kinetic_mst_fragments_total"),
		mstRounds:     r.Counter("adhocnet_mst_rounds_total"),
		mstCandidates: r.Counter("adhocnet_mst_candidates_total"),
		mstKept:       r.Counter("adhocnet_kinetic_mst_kept_edges_total"),
		certified:     r.Counter("adhocnet_graph_critical_certified_total"),
		movedPoints:   r.Counter("adhocnet_kinetic_moved_points_total"),
		gridPicks:     r.Counter(`adhocnet_spatial_auto_picks_total{backend="grid"}`),
		treePicks:     r.Counter(`adhocnet_spatial_auto_picks_total{backend="kdtree"}`),
		gridStats:     newSpatialCounters(r, "grid"),
		treeStats:     newSpatialCounters(r, "kdtree"),
	}
}

// timerStart begins a phase timing; the zero time when timing is off. Always
// pair with one of the observe* methods, which share the gate.
func (rm *runMetrics) timerStart() time.Time {
	if rm == nil || !rm.timed {
		return time.Time{}
	}
	return obs.Clock.Now()
}

func (rm *runMetrics) observeProduce(start time.Time) {
	if rm == nil || !rm.timed {
		return
	}
	rm.produceNs.Observe(obs.Clock.Since(start).Nanoseconds())
}

func (rm *runMetrics) observeEval(start time.Time) {
	if rm == nil || !rm.timed {
		return
	}
	rm.evalNs.Observe(obs.Clock.Since(start).Nanoseconds())
}

func (rm *runMetrics) observeMerge(start time.Time) {
	if rm == nil || !rm.timed {
		return
	}
	rm.mergeNs.Observe(obs.Clock.Since(start).Nanoseconds())
}

// producerStalled records one producer wait on ring credits (the pipeline's
// backpressure signal) and its duration.
func (rm *runMetrics) producerStalled(start time.Time) {
	if rm == nil {
		return
	}
	rm.stalls.Inc()
	if rm.timed {
		rm.stallNs.Observe(obs.Clock.Since(start).Nanoseconds())
	}
}

// observeRing samples the ring occupancy (blocks in flight; on the rebuild
// path every block is one snapshot) at a task hand-off.
func (rm *runMetrics) observeRing(occupied int) {
	if rm == nil {
		return
	}
	rm.ringOcc.Observe(int64(occupied))
}

// observeLag records how far ahead of the merge frontier a completed step
// landed (0 = arrived in order; bounded by the pool's result window).
func (rm *runMetrics) observeLag(lag int) {
	if rm == nil {
		return
	}
	rm.lag.Observe(int64(lag))
}

func (rm *runMetrics) plannedIterations(n int) {
	if rm == nil {
		return
	}
	rm.planned.Set(int64(n))
}

func (rm *runMetrics) iterationDone() {
	if rm == nil {
		return
	}
	rm.iterations.Inc()
}

func (rm *runMetrics) restoredIteration() {
	if rm == nil {
		return
	}
	rm.restored.Inc()
	rm.iterations.Inc()
}

// iterationError counts a failed iteration, splitting out recovered panics.
func (rm *runMetrics) iterationError(err error) {
	if rm == nil {
		return
	}
	rm.iterErrors.Inc()
	var pe *PanicError
	if errors.As(err, &pe) {
		rm.panics.Inc()
	}
}

func (rm *runMetrics) sequentialTrajectory() {
	if rm == nil {
		return
	}
	rm.seqTraj.Inc()
}

func (rm *runMetrics) pooledTrajectory() {
	if rm == nil {
		return
	}
	rm.pooledTraj.Inc()
}

// flushWorkspace drains the workspace's accumulated kinetic/spatial counters
// into the registry. Called at iteration boundaries (outer workers) and at
// evaluator exit (snapshot pool) — never inside a snapshot loop.
func (rm *runMetrics) flushWorkspace(ws *graph.Workspace) {
	if rm == nil {
		return
	}
	s := ws.TakeStats()
	rm.mstRepairs.Add(s.MSTRepairs)
	rm.mstRebuilds.Add(s.MSTRebuilds)
	rm.mstDirty.Add(s.MSTDirtyFallbacks)
	rm.mstFragments.Add(s.MSTFragments)
	rm.mstRounds.Add(s.MSTRounds)
	rm.mstCandidates.Add(s.MSTCandidates)
	rm.mstKept.Add(s.MSTKeptEdges)
	rm.certified.Add(s.CriticalCertified)
	rm.movedPoints.Add(s.MovedPoints)
	rm.gridPicks.Add(s.GridPicks)
	rm.treePicks.Add(s.TreePicks)
	rm.gridStats.flush(s.Grid)
	rm.treeStats.flush(s.Tree)
}
