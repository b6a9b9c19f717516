package graph

import "adhocnet/internal/spatial"

// WorkspaceStats are the workspace's per-iteration operation counters: the
// kinetic MST repair's repair-vs-rebuild decisions, the annulus MST rounds'
// work, the backend auto-selection outcomes, and the underlying spatial
// indexes' own counters. Like spatial.Stats they are plain fields on
// goroutine-owned state — incremented for free on paths that are hot,
// drained into registry atomics at iteration boundaries by the scheduler
// (see core's runMetrics). Every counter but CriticalCertified is a
// deterministic function of the workload.
type WorkspaceStats struct {
	// MSTRepairs counts ProfileKinetic calls answered by the incremental
	// kineticMST repair; MSTRebuilds counts armed calls that ran the plain
	// GeoMST path instead (cold cache, degenerate placement, or after a
	// dirty-fraction fallback).
	MSTRepairs  uint64
	MSTRebuilds uint64
	// MSTDirtyFallbacks counts warm-cache steps abandoned because the moved
	// fraction exceeded kineticDirtyFraction.
	MSTDirtyFallbacks uint64
	// MSTFragments accumulates the kept-forest fragment count of each repair
	// (phase 1's partition size — the structural damage the step caused).
	MSTFragments uint64
	// MSTRounds counts the annulus Kruskal rounds of every MST (GeoMST and
	// the kinetic repair alike); MSTCandidates accumulates the candidate
	// edges their annulus queries emitted (kept-forest edges are not
	// candidates).
	MSTRounds     uint64
	MSTCandidates uint64
	// MSTKeptEdges accumulates phase-1 kept edges across repairs.
	MSTKeptEdges uint64

	// CriticalCertified counts the dense critical-range calls answered by
	// the kept spanning tree's certificate instead of a Prim (denseCritical).
	// It depends on which tree the workspace holds, so on the pooled and
	// multi-worker paths it varies with the schedule; the answers do not.
	CriticalCertified uint64

	// GraphRepairs / GraphRebuilds are always zero: the communication graph
	// is rebuilt per snapshot and has no repair path. They stay because the
	// benchmark harness (cmd/adhocbench) reads them.
	GraphRepairs  uint64
	GraphRebuilds uint64

	// MovedPoints accumulates the moved-set sizes handled by repairs.
	MovedPoints uint64

	// GridPicks / TreePicks count BackendAuto resolutions per snapshot.
	GridPicks uint64
	TreePicks uint64

	// Grid and Tree are the drained counters of the workspace's two spatial
	// indexes.
	Grid spatial.Stats
	Tree spatial.Stats
}

// TakeStats returns the workspace's counters accumulated since the last call
// and resets them, pulling in the spatial indexes' counters as it goes.
func (ws *Workspace) TakeStats() WorkspaceStats {
	s := ws.stats
	ws.stats = WorkspaceStats{}
	s.Grid.Add(ws.ix.TakeStats())
	s.Tree.Add(ws.kd.TakeStats())
	return s
}
