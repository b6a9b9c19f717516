package analysis

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
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
		"spatial.pairsSelf",
		"spatial.pairsCross",
		"spatial.minSelf",
		"spatial.minCross",
		"spatial.minCrossPair",
		"spatial.pointsVsPure",
		"spatial.minPoint",
		"spatial.pointBoxMinDist2",
		"spatial.offerPair",
		"spatial.ForEachNear",
		"geom.Dist2Batch",
		"graph.sortCandidates",
		"graph.bucketReplay",
		"graph.outsiderPairs",
		"graph.critical2",
		"graph.critical3",
		"graph.lighterAcross",
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

// exportAllowlist names the exported functions and methods of internal/
// that no program calls but that stay, each with its reason. A key is
// "pkg.Func", "pkg.Type.Method", or "pkg" for a whole package.
var exportAllowlist = map[string]string{
	"graph.PrimMST":                        "reference MST the GeoMST tests and fuzzers compare against",
	"graph.NewProfile":                     "reference profile from GeoMST's annulus rounds at every n, which the dense Profile path is checked against",
	"graph.NewProfile1D":                   "reference 1-D profile the sorted-gaps path and the 1-D estimates are checked against",
	"core.DirectFixedRange":                "reference the fixed-range evaluator tests compare against",
	"core.EvaluateFixedRange":              "single-radius twin of DirectFixedRange, the reference for EvaluateFixedRanges",
	"graph.Adjacency.BFSDistances":         "reference BFS the bit-parallel hop statistics are checked against",
	"graph.Adjacency.LargestComponentSize": "reference for Structure.Largest in FuzzHopStatsMatchesBFS",
	"core.MinNodesForConnectivity":         "closed form kept for the analytic oracles",
	"unidim":                               "closed forms kept for the analytic oracles",
	"occupancy":                            "closed forms kept for the analytic oracles",
	"bidim":                                "closed forms kept for the analytic oracles",
	"obs.NewDisabled":                      "the zero-overhead gate measures the disabled registry",
	"obs.DecodeRunReport":                  "strict run-report/v1 reader that its fuzzer round-trips",
	"faultinject":                          "test-support package",
	"geomtest":                             "test-support package",
}

// TestNoUncalledExports keeps internal/ to the API its programs use: every
// exported function or method there must be referenced by non-test code of
// the module (cmd/adhocbench included) somewhere outside its own
// declaration, be a method an interface may dispatch to, or carry a reason
// in exportAllowlist.
//
// A method counts as dispatched when some module type T — its receiver, or
// a type it is promoted into by embedding — has it in the method set of T
// or *T, and that type implements an interface declaring the method's
// name: one declared in the module, or error, fmt.Stringer,
// json.Marshaler, json.Unmarshaler or types.Importer. A name match alone is
// not enough (a Validate nobody calls is not excused by some other type's
// Validate), and a receiver-only check is too little (a method of an
// embedded type reaches its interface through the embedding type).
func TestNoUncalledExports(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./..."}, l.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	const internal = "adhocnet/internal/"
	seen := false
	// The interfaces a method may be dispatched through, and the module's
	// other named types, whose method sets the exemption searches.
	var ifaces []*types.Interface
	var named []types.Type
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, std := range [][2]string{
		{"fmt", "Stringer"},
		{"encoding/json", "Marshaler"},
		{"encoding/json", "Unmarshaler"},
		{"go/types", "Importer"},
	} {
		p, err := l.Import(std[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface))
	}
	type export struct {
		key      string
		pos, end token.Pos
	}
	exports := make(map[*types.Func]export)
	for _, pkg := range pkgs {
		seen = seen || pkg.Path == "adhocnet/cmd/adhocbench"
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() > 0 {
				continue // uninstantiated generics implement nothing as such
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else {
				named = append(named, tn.Type(), types.NewPointer(tn.Type()))
			}
		}
		if !strings.HasPrefix(pkg.Path, internal) {
			continue
		}
		short := pkgShortName(pkg.Path)
		for _, fd := range funcDecls(pkg) {
			if !fd.Name.IsExported() {
				continue
			}
			fn := pkg.Info.Defs[fd.Name].(*types.Func)
			key := short + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				key = short + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
			}
			exports[fn] = export{key, fd.Pos(), fd.End()}
		}
	}
	if !seen {
		t.Fatal("package walk missed adhocnet/cmd/adhocbench, the benchmark's calls would not count")
	}
	used := make(map[*types.Func]bool)
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if e, ok := exports[fn]; ok && (id.Pos() < e.pos || id.Pos() >= e.end) {
				used[fn] = true
			}
		}
	}
	var uncalled []string
	allowed := make(map[string]bool)
	for fn, e := range exports {
		if used[fn] {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil && dispatched(fn, named, ifaces) {
			continue
		}
		short, _, _ := strings.Cut(e.key, ".")
		if _, ok := exportAllowlist[short]; ok {
			allowed[short] = true
			continue
		}
		if _, ok := exportAllowlist[e.key]; ok {
			allowed[e.key] = true
			continue
		}
		uncalled = append(uncalled, e.key)
	}
	sort.Strings(uncalled)
	for _, key := range uncalled {
		t.Errorf("%s is exported but no program calls it: delete it, or add it to exportAllowlist with a reason", key)
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("exportAllowlist names %s, which is gone or now called: drop the entry", key)
		}
	}
}

// dispatched reports whether some type of named has method fn in its method
// set, itself or promoted from an embedded field, and implements an
// interface of ifaces that declares fn's name.
func dispatched(fn *types.Func, named []types.Type, ifaces []*types.Interface) bool {
	for _, T := range named {
		sel := types.NewMethodSet(T).Lookup(fn.Pkg(), fn.Name())
		if sel == nil || sel.Obj() != fn {
			continue
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(T, it) {
					return true
				}
			}
		}
	}
	return false
}
