package analysis

import (
	"testing"
)

// TestRepoCleanUnderOwnLint is the merge gate in test form: the whole
// module must be free of diagnostics from the full suite, the same
// property CI enforces with `go run ./cmd/adhoclint ./...`. Real findings
// are either fixed or carry an //adhoclint:allow with a reason.
func TestRepoCleanUnderOwnLint(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./..."}, l.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	// A collapsed package walk (e.g. a loader regression skipping internal/)
	// would vacuously pass; pin a floor well under the real count.
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from ./..., expected the full module", len(pkgs))
	}
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		seen[pkg.Path] = true
	}
	for _, must := range []string{
		"adhocnet",
		"adhocnet/cmd/adhocsim",
		"adhocnet/cmd/adhoclint",
		"adhocnet/internal/core",
		"adhocnet/internal/spatial",
	} {
		if !seen[must] {
			t.Errorf("package walk missed %s", must)
		}
	}
	diags, err := Run(l, pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestHotPathMarksPresent pins the tentpole wiring: the inner loops the
// benchmarks hold at zero allocations must actually carry the
// //adhoc:hotpath mark, so the analyzer guards them and a refactor cannot
// silently drop the contract.
func TestHotPathMarksPresent(t *testing.T) {
	l := testLoader(t)
	marked := make(map[string]bool)
	for _, path := range []string{
		"adhocnet/internal/geom",
		"adhocnet/internal/spatial",
		"adhocnet/internal/graph",
		"adhocnet/internal/core",
	} {
		pkg, err := l.LoadPackage(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range funcDecls(pkg) {
			if isHotPath(fd) {
				marked[pkgShortName(path)+"."+fd.Name.Name] = true
			}
		}
	}
	for _, want := range []string{
		"spatial.ForEachPairWithin",
		"spatial.NearestNeighborDistancesInto",
		"spatial.pairsSelf",
		"spatial.pairsCross",
		"spatial.minSelf",
		"spatial.minCross",
		"spatial.minCrossPair",
		"spatial.minCrossPure",
		"spatial.offerPair",
		"spatial.ForEachNear",
		"geom.Dist2Batch",
		"graph.sortCandidates",
		"graph.filterKruskal",
		"graph.outsiderPairs",
		"graph.prim2",
		"graph.prim3",
		"graph.Find",
		"graph.Union",
		"graph.hopStatsInto",
		"graph.cutVerticesInto",
		"graph.labelComponents",
		"core.observe",
	} {
		if !marked[want] {
			t.Errorf("expected //adhoc:hotpath mark on %s", want)
		}
	}
	if len(marked) < 25 {
		t.Errorf("only %d hot-path marks found, expected the full inner-loop set", len(marked))
	}
}
