// Package adhocnet is a Go reproduction of "An Evaluation of Connectivity in
// Mobile Wireless Ad Hoc Networks" (Santi and Blough, DSN 2002).
//
// The module implements, from scratch and on the standard library only:
//
//   - the paper's connectivity simulator for stationary and mobile ad hoc
//     networks (internal/core), with the random waypoint and drunkard
//     mobility models of Section 4.1 plus Gauss–Markov and reference-point
//     group mobility, and pluggable initial-placement distributions
//     (uniform, Gaussian hotspots, k-cluster, edge-concentrated) behind the
//     mobility.Placement abstraction (internal/mobility);
//   - a declarative scenario engine (internal/scenario): JSON workload
//     specs with strict validation, name->factory registries for mobility
//     models and placements shared by every CLI and experiment, and a
//     checked-in scenario library (scenarios/, embedded as Scenarios) that
//     re-expresses the paper presets bit-identically and adds beyond-paper
//     workloads — run one with `adhocsim -scenario scenarios/<name>.json`;
//   - the occupancy theory of Section 2 (internal/occupancy) and the exact
//     1-D connectivity results of Section 3 (internal/unidim), including the
//     {10*1} cell-pattern machinery behind Theorem 4;
//   - the substrates those need: deterministic splittable PRNG
//     (internal/xrand), geometry (internal/geom), CSR cell-grid neighbor
//     search (internal/spatial), graph/MST/connectivity-profile algorithms
//     (internal/graph), and statistics (internal/stats);
//   - runners regenerating every figure of the paper's evaluation plus
//     theory-validation experiments (internal/experiments), exposed through
//     the cmd/repro and cmd/adhocsim binaries, and the cmd/adhocbench
//     benchmark.
//
// Performance architecture: every snapshot's connectivity is derived from
// its Euclidean MST, computed by a grid-accelerated filtered Kruskal
// (graph.GeoMST, near-linear in practice, dense-Prim fallback for tiny n)
// over reusable per-worker scratch (graph.Workspace), so steady-state
// snapshot evaluation allocates nothing and scales two orders of magnitude
// beyond the paper's n = 128. A two-level scheduler (core/scheduler.go)
// parallelizes both across iterations and across the snapshots within one
// iteration — trajectory generation stays sequential while profile
// evaluation fans out over a bounded buffer ring with an ordered reduction —
// so the paper-faithful "few iterations, many steps, large n" regime
// saturates all cores with bit-identical results for every worker count.
// Across mobility steps the kinetic pipeline (RunConfig.Kinetic, DESIGN.md
// "Kinetic MST repair") repairs the k-d tree and MST from the previous
// snapshot instead of rebuilding: mobility models report per-step moved
// sets, the k-d tree widens its boxes in place, and the MST repair
// re-derives the exact strict-order Kruskal tree from kept edges plus
// fragment-crossing annulus minima, bit-identical to the rebuild path by
// construction. Per step on a ~2% drift walk the MST repair is 1.31–1.46x
// faster than a rebuild, but 0.92x (a loss) for clustered placements at
// n = 16384; see DESIGN.md "Measured envelope".
// DESIGN.md documents the algorithms, the exactness contract against the
// dense Prim, the buffer-ring/determinism contract, and the workspace-reuse
// rules; fixed-seed golden traces, fuzz suites (GeoMST vs dense Prim and vs
// the strict Kruskal edge sequence, grid search vs brute force) and
// worker-invariance tests enforce them in CI, including a -race job.
//
// Every run can be watched without being perturbed: internal/obs provides
// atomic counters/gauges/histograms behind a nil-safe Registry threaded
// through the scheduler, the kinetic pipeline and both spatial backends,
// exposed via `-obs <addr>` (live /metrics, /vars and /debug/pprof/ on
// adhocsim and repro), `-run-report <file>` (a strict-JSON end-of-run
// summary, schema adhocnet/run-report/v1) and `-progress` heartbeats.
// Results are bit-identical with observability absent, disabled or live
// (matrix-tested), wall-clock access is confined to obs.Clock, and a
// disabled registry is CI-gated to cost within 2% of none at all — see
// DESIGN.md "Observability".
//
// The invariants those tests check at run time are also enforced at build
// time by cmd/adhoclint (internal/analysis): six project-specific
// analyzers covering seed-replayability (detrand), zero-alloc hot paths
// (hotpath, driven by //adhoc:hotpath marks), ctx-first lifecycle plumbing
// (ctxfirst), strict JSON decoding (strictjson), canonical
// squared-distance arithmetic (geomdist), and obs.Clock-routed wall-clock
// access (obsclock). CI's lint job and the analysis
// package's self-test both require `adhoclint ./...` to be diagnostic-free.
//
// See DESIGN.md for the system inventory and key algorithmic decisions. The
// benchmarks in bench_test.go regenerate each figure through the testing.B
// harness and track the per-snapshot cost at n = 128 through 2048.
package adhocnet
