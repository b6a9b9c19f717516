package spatial

// Stats are plain per-index operation counters, the raw material of the
// observability layer (internal/obs). They are deliberately NOT atomics: an
// Index/KDTree is goroutine-owned (one per workspace), so plain increments
// cost one add on paths that are otherwise hot, and the owning workspace
// flushes them into registry atomics at iteration boundaries
// (graph.Workspace.TakeStats). The counters are deterministic functions of
// the workload — they count structural events, never wall time — so flushing
// or dropping them can never perturb results.
type Stats struct {
	// Rebuilds counts full index builds (including those Update fell back to).
	Rebuilds uint64
	// Updates counts incremental KDTree.Update calls (kinetic MST repair
	// steps); the grid has no incremental path.
	Updates uint64
	// UpdateRebuilds counts Update calls that abandoned the incremental path
	// for a full rebuild (dirty fraction exceeded, stale boxes, cold index).
	UpdateRebuilds uint64
	// PairQueries counts all-pairs scans (ForEachPairWithin) — one per
	// full-scan grid MST round or point-graph build, not per pair.
	PairQueries uint64
	// NearQueries counts directed single-point grid queries (ForEachNear):
	// one per outsider in GeoMST's grid outsider rounds.
	NearQueries uint64
	// MinPairsRounds counts MinPairsByLabel calls: the k-d tree annulus
	// rounds of GeoMST and of the kinetic MST repair.
	MinPairsRounds uint64
}

// Add folds o into s (the workspace aggregation step).
func (s *Stats) Add(o Stats) {
	s.Rebuilds += o.Rebuilds
	s.Updates += o.Updates
	s.UpdateRebuilds += o.UpdateRebuilds
	s.PairQueries += o.PairQueries
	s.NearQueries += o.NearQueries
	s.MinPairsRounds += o.MinPairsRounds
}

// TakeStats returns the grid's counters since the last call and resets them.
func (ix *Index) TakeStats() Stats {
	s := ix.stats
	ix.stats = Stats{}
	return s
}

// TakeStats returns the tree's counters since the last call and resets them.
func (t *KDTree) TakeStats() Stats {
	s := t.stats
	t.stats = Stats{}
	return s
}
