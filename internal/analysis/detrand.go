package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// DetRand enforces determinism in the simulation packages: results must be
// a pure function of the configured seed. Wall-clock reads and math/rand
// (globally seeded, lock-shared) break replay and invalidate checkpointed
// or cached results undetectably; map iteration order can leak into
// results or emitted output. internal/xrand and sorted-key iteration are
// the sanctioned routes.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid nondeterminism sources (math/rand, time.Now/Since, unsorted map iteration) in simulation packages",
	Run:  runDetRand,
}

// detrandScope is keyed on the last import-path element; these are the
// packages whose behavior or output must replay bit-identically from a
// seed. experiments, report and the theory and extension packages are
// included because their values reach the published report rows.
var detrandScope = map[string]bool{
	"core":          true,
	"graph":         true,
	"spatial":       true,
	"mobility":      true,
	"scenario":      true,
	"checkpoint":    true,
	"experiments":   true,
	"obs":           true,
	"bidim":         true,
	"dissemination": true,
	"geom":          true,
	"occupancy":     true,
	"rangeassign":   true,
	"report":        true,
	"stats":         true,
	"unidim":        true,
	"xrand":         true,
}

func runDetRand(pass *Pass) error {
	short := pkgShortName(pass.Pkg.Path)
	if !detrandScope[short] {
		return nil
	}
	// internal/obs is the sanctioned home of wall-clock reads (obs.Clock);
	// its randomness and map-iteration rules still apply, and the obsclock
	// analyzer separately confines its time-package use to clock.go.
	allowWallClock := short == "obs"
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s: simulation code must draw randomness from internal/xrand so a seed replays bit-identically", path)
			}
		}
		if !allowWallClock {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					for _, name := range []string{"Now", "Since"} {
						if usedPkgFunc(info, sel, "time", name) {
							pass.Reportf(sel.Pos(), "time.%s in a simulation package: wall-clock reads are nondeterministic; reach wall time through obs.Clock (timing metrics only) or keep it in the CLIs", name)
						}
					}
				}
				return true
			})
		}
	}
	for _, fd := range funcDecls(pass.Pkg) {
		fd := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedKeyCollection(info, fd, rs) {
				return true
			}
			pass.Reportf(rs.Pos(), "map iteration order is nondeterministic and can reach results or output; collect the keys, sort, and iterate the slice")
			return true
		})
	}
	return nil
}

// sortedKeyCollection recognizes the one sanctioned map-range shape: a
// key-only loop whose body is exactly `keys = append(keys, k)` followed
// later in the same function by a call into package sort or slices — the
// collect-then-sort idiom, whose observable behavior is order-independent.
func sortedKeyCollection(info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Key == nil {
		return false
	}
	keyIdent, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := info.Defs[keyIdent]
	if keyObj == nil || len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	} else if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	lhs, ok := asg.Lhs[0].(*ast.Ident)
	dst, ok2 := call.Args[0].(*ast.Ident)
	if !ok || !ok2 || info.Uses[lhs] != info.Uses[dst] || info.Uses[lhs] == nil {
		return false
	}
	usesKey := false
	for _, arg := range call.Args[1:] {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == keyObj {
				usesKey = true
			}
			return true
		})
	}
	if !usesKey {
		return false
	}
	// The collected keys must be put into a deterministic order before they
	// can matter: demand a sort call after the loop.
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
				if p := obj.Pkg().Path(); p == "sort" || p == "slices" || strings.HasSuffix(p, "/slices") {
					sorted = true
				}
			}
		}
		return true
	})
	return sorted
}
