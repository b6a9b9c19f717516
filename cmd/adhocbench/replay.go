package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"adhocnet/internal/core"
	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
	"adhocnet/internal/spatial"
	"adhocnet/internal/stats"
	"adhocnet/internal/xrand"
)

// The replay re-drives a job's trajectories on one goroutine through the
// layers' public APIs, timing every call from outside: it rebuilds each
// iteration exactly as core does (the iteration's split stream, the model's
// NewState, kinetic arming from RunConfig.Levels) and evaluates every
// snapshot with the same workspace entry point, so its operation counts equal
// the traced run's and its per-snapshot critical radii equal the run's.

// figModels are the two figures of paper-figs and the mobility model each
// sweeps, as internal/experiments defines them.
var figModels = []struct {
	id    string
	model func(l float64) mobility.Model
}{
	{"fig2", func(l float64) mobility.Model { return mobility.PaperWaypoint(l) }},
	{"fig3", func(l float64) mobility.Model { return mobility.PaperDrunkard(l) }},
}

// figReplayIterations caps the iterations replayed per paper-figs sweep
// point: two of sixteen keep the trace small while covering the kinetic
// path every iteration takes.
const figReplayIterations = 2

// figNodes is the paper's n = sqrt(l).
func figNodes(l float64) int { return int(math.Round(math.Sqrt(l))) }

// figSeed mirrors experiments.Preset.seedFor, which derives each sweep
// point's seed from the preset seed and a label. TestReplayFidelity checks
// the mirror against the rendered figure.
func figSeed(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h ^ (seed * 0x9e3779b97f4a7c15)
}

// trajectory is one simulated network of a job and how many of its
// iterations the replay re-drives.
type trajectory struct {
	net    core.Network
	cfg    core.RunConfig
	replay int
	radius float64 // > 0: a structure evaluation at this radius
}

func (j *job) trajectories() []trajectory {
	if j.w.kind != kindFigs {
		tr := trajectory{net: j.sc.Network, cfg: j.sc.Config, replay: j.sc.Config.Iterations}
		if j.w.kind == kindStructure {
			tr.radius = j.sc.Radii[0]
		}
		return []trajectory{tr}
	}
	p := j.preset
	var out []trajectory
	for _, fig := range figModels {
		for _, l := range p.Sides {
			out = append(out, trajectory{
				net: core.Network{Nodes: figNodes(l), Region: geom.MustRegion(l, 2), Model: fig.model(l)},
				cfg: core.RunConfig{
					Iterations: p.Iterations,
					Steps:      p.Steps,
					Seed:       figSeed(p.Seed, fmt.Sprintf("%s/l=%v", fig.id, l)),
					Workers:    p.Workers,
					Kinetic:    p.Kinetic,
				},
				replay: min(p.Iterations, figReplayIterations),
			})
		}
	}
	return out
}

// kineticArmed reports whether core evaluates the trajectory's iterations
// kinetically: forced on, or auto with one snapshot evaluator per iteration.
func kineticArmed(cfg core.RunConfig) bool {
	_, inner, _ := cfg.Levels()
	return cfg.Steps >= 2 && (cfg.Kinetic == core.KineticOn || cfg.Kinetic == core.KineticAuto && inner <= 1)
}

// span is one timed call. Spans of one replayed iteration share Trace;
// Parent is -1 for roots. Times are nanoseconds since the replay started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (tc *tracer) begin(name string, parent, trace int32) int32 {
	id := int32(len(tc.spans))
	tc.spans = append(tc.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Since(tc.t0).Nanoseconds()})
	return id
}

func (tc *tracer) end(id int32) { tc.spans[id].End = time.Since(tc.t0).Nanoseconds() }

// durations returns the durations of the named spans in nanoseconds.
func (tc *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tc.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfMs sums each layer's self time: a span's duration minus the time its
// children cover. A span's layer is its name up to the first dot; the
// replay's own iteration, snapshot and probe spans belong to "replay".
func (tc *tracer) selfMs() map[string]float64 {
	child := make([]int64, len(tc.spans))
	for _, s := range tc.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range tc.spans {
		layer, _, found := strings.Cut(s.Name, ".")
		if !found {
			layer = "replay"
		}
		out[layer] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// prober times the geom and spatial layers on a snapshot at the MST's
// starting radius. Its spans are children of the iteration, not of the
// snapshot: they sit outside the evaluation's blocking path.
type prober struct {
	dst        []float64
	ix         spatial.Index
	kd         spatial.KDTree
	visit      spatial.PairVisitor
	distPoints int
	allocB     uint64 // bytes allocated by probes, excluded from the graph layer
}

// dist2Rows bounds the Dist2Batch rows per probe.
const dist2Rows = 256

func (p *prober) probe(tc *tracer, pts []geom.Point, dim int, parent, trace int32) {
	extent, dims := spatial.BoundingExtent(pts)
	if extent == 0 || len(pts) < 2 {
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if p.visit == nil {
		p.visit = func(int, int, float64) {}
	}
	r0 := extent / math.Pow(float64(len(pts)), 1/float64(dims))
	root := tc.begin("probe", parent, trace)

	if cap(p.dst) < len(pts) {
		p.dst = make([]float64, len(pts))
	}
	rows := min(len(pts), dist2Rows)
	s := tc.begin("geom.dist2batch", root, trace)
	for i := 0; i < rows; i++ {
		geom.Dist2Batch(p.dst[:len(pts)], pts[i], pts)
	}
	tc.end(s)
	p.distPoints += rows * len(pts)

	s = tc.begin("spatial.choose_backend", root, trace)
	spatial.ChooseBackend(pts, dim, r0)
	tc.end(s)

	s = tc.begin("spatial.grid_build_query", root, trace)
	p.ix.Rebuild(pts, dim, r0)
	p.ix.ForEachPairWithin(r0, p.visit)
	tc.end(s)

	s = tc.begin("spatial.kdtree_build", root, trace)
	p.kd.Rebuild(pts, dim)
	tc.end(s)

	tc.end(root)
	runtime.ReadMemStats(&m1)
	p.allocB += m1.TotalAlloc - m0.TotalAlloc
}

// probesPerReplay is the number of snapshots probed per replay, enough for a
// stable median.
const probesPerReplay = 128

// replayResult is what one replay measured.
type replayResult struct {
	layers map[string]float64
	spans  []span
	selfMs map[string]float64
	// iterMax[k][i] is the largest critical radius over the snapshots of
	// iteration i of trajectory k (profile evaluations only).
	iterMax [][]float64
	stats   graph.WorkspaceStats
}

// replay re-drives the job's trajectories and derives the geom, mobility,
// spatial and graph metrics.
func replay(j *job) (*replayResult, error) {
	trs := j.trajectories()
	total, spans := 0, 0
	for _, tr := range trs {
		n := tr.replay * tr.cfg.Steps
		total += n
		spans += tr.replay + 4*n
	}
	stride := max(1, total/probesPerReplay)
	tc := &tracer{spans: make([]span, 0, spans+5*(total/stride+1))}
	var pr prober
	ws := graph.NewWorkspace()
	res := &replayResult{}
	var movedFrac float64
	var steps int

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tc.t0 = time.Now()
	snap, trace := 0, int32(0)
	for k, tr := range trs {
		net, cfg := tr.net, tr.cfg
		dim := net.Region.Dim
		ws.SetSpatialBackend(cfg.Spatial)
		armed := kineticArmed(cfg)
		rngs := xrand.New(cfg.Seed).SplitN(cfg.Iterations)
		res.iterMax = append(res.iterMax, make([]float64, tr.replay))
		for i := 0; i < tr.replay; i++ {
			trace++
			it := tc.begin("iteration", -1, trace)
			state, err := net.Model.NewState(rngs[i], net.Region, net.Nodes, net.Placement)
			if err != nil {
				return nil, err
			}
			mover := mobility.TrackMoves(state)
			ws.SetKinetic(armed)
			for t := 0; t < cfg.Steps; t++ {
				sn := tc.begin("snapshot", it, trace)
				var moved []int32
				if t > 0 {
					s := tc.begin("mobility.step", sn, trace)
					mover.Step()
					tc.end(s)
					movedFrac += float64(len(mover.Moved())) / float64(net.Nodes)
					steps++
					if armed {
						moved = mover.Moved()
					}
				}
				pts := mover.Positions()
				e := tc.begin("graph.eval", sn, trace)
				if tr.radius > 0 {
					g := ws.PointGraphKinetic(pts, dim, tr.radius, moved)
					tc.end(e)
					s := tc.begin("graph.structure", sn, trace)
					structure(g)
					tc.end(s)
				} else {
					c := ws.ProfileKinetic(pts, dim, moved).Critical()
					tc.end(e)
					res.iterMax[k][i] = max(res.iterMax[k][i], c)
				}
				tc.end(sn)
				if snap%stride == 0 {
					pr.probe(tc, pts, dim, it, trace)
				}
				snap++
			}
			tc.end(it)
		}
	}
	runtime.ReadMemStats(&m1)
	res.stats = ws.TakeStats()
	res.spans = tc.spans
	res.selfMs = tc.selfMs()

	st := res.stats
	snaps := float64(total)
	graphAlloc := float64(m1.TotalAlloc - m0.TotalAlloc - pr.allocB)
	res.layers = map[string]float64{
		"geom.dist2batch_ns_per_point":         sum(tc.durations("geom.dist2batch")) / float64(max(1, pr.distPoints)),
		"mobility.step_us_p50":                 quantile(tc.durations("mobility.step"), 0.5) / 1e3,
		"mobility.moved_frac":                  ratio(movedFrac, float64(steps)),
		"spatial.choose_backend_us_p50":        quantile(tc.durations("spatial.choose_backend"), 0.5) / 1e3,
		"spatial.grid_build_query_us_p50":      quantile(tc.durations("spatial.grid_build_query"), 0.5) / 1e3,
		"spatial.kdtree_build_us_p50":          quantile(tc.durations("spatial.kdtree_build"), 0.5) / 1e3,
		"spatial.tree_pick_frac":               ratio(float64(st.TreePicks), float64(st.TreePicks+st.GridPicks)),
		"spatial.update_rebuild_frac":          ratio(float64(st.Grid.UpdateRebuilds+st.Tree.UpdateRebuilds), float64(st.Grid.Updates+st.Tree.Updates)),
		"spatial.pair_queries_per_snapshot":    float64(st.Grid.PairQueries+st.Tree.PairQueries) / snaps,
		"spatial.near_queries_per_snapshot":    float64(st.Grid.NearQueries+st.Tree.NearQueries) / snaps,
		"spatial.minpairs_rounds_per_snapshot": float64(st.Grid.MinPairsRounds+st.Tree.MinPairsRounds) / snaps,
		"graph.eval_us_p50":                    quantile(tc.durations("graph.eval"), 0.5) / 1e3,
		"graph.eval_us_p90":                    quantile(tc.durations("graph.eval"), 0.9) / 1e3,
		"graph.structure_us_p50":               quantile(tc.durations("graph.structure"), 0.5) / 1e3,
		"graph.alloc_b_per_snapshot":           graphAlloc / snaps,
		"graph.kinetic_repair_frac": ratio(float64(st.MSTRepairs+st.GraphRepairs),
			float64(st.MSTRepairs+st.MSTRebuilds+st.GraphRepairs+st.GraphRebuilds)),
		"graph.dirty_fallback_frac":         ratio(float64(st.MSTDirtyFallbacks), float64(st.MSTRepairs+st.MSTRebuilds)),
		"graph.mst_rounds_per_snapshot":     float64(st.MSTRounds) / snaps,
		"graph.mst_candidates_per_snapshot": float64(st.MSTCandidates) / snaps,
	}
	return res, nil
}

// structure computes the per-snapshot graph metrics core.EvaluateStructure
// derives from the communication graph.
func structure(g *graph.Adjacency) {
	g.DegreeStats()
	g.Components()
	g.HopStats()
	g.ArticulationPoints()
	g.IsBiconnected()
}

// quantile returns the q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return stats.QuantileSorted(sorted, q)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
