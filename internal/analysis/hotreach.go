package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// HotReach closes the //bp:hotpath contract over the call graph. Hotpath
// checks each marked function's own body; HotReach checks the edges: a
// marked function may only *statically call* functions that are themselves
// marked (the marker is exported as an analysis fact, so the closure is
// enforced across packages), and a marked body may not heap-allocate.
// Together the two give the transitive guarantee the kernelized simulator
// loop depends on — every function reachable from Sim.step by direct calls
// carries the marker and is therefore itself checked.
//
// Call-edge rules:
//
//   - direct calls and concrete method calls must target a //bp:hotpath
//     function (the miss is reported at the call site)
//   - calls through func values (s.predLookup and the other predictor
//     methods the simulator binds once as interface method values) are
//     exempt: a value bound at construction is the sanctioned hot-path
//     indirection, and the bound implementations carry their own markers
//   - interface-method calls are Hotpath's diagnostic, not repeated here
//   - builtins (len, cap, panic on the failure path) are exempt, as are the
//     pure math and math/bits stdlib kernels
//
// Allocation rules inside a hot body:
//
//   - make / new / growing append — report at the call
//   - closure creation (func literals) — a FuncLit allocates its environment
//   - string concatenation — builds a fresh string per cycle
//   - fmt.* calls — allocate and reflect (and are non-hot by the call rule;
//     the dedicated message points at the usual fix: panic on a prebuilt
//     constant or move formatting off the hot path)
//   - passing a concrete non-pointer value to an interface parameter —
//     boxing allocates
//
// A cold sub-path inside a hot function (a panic-only guard, a bounded
// once-per-run append) is suppressed with //bplint:allow hotreach -- reason.
var HotReach = &analysis.Analyzer{
	Name:      "hotreach",
	Doc:       "enforce the transitive //bp:hotpath closure: hot functions call only hot functions and never heap-allocate",
	Run:       runHotReach,
	FactTypes: []analysis.Fact{(*hotFact)(nil)},
}

// hotFact marks a function as //bp:hotpath for cross-package callers.
type hotFact struct{}

func (*hotFact) AFact() {}

func (*hotFact) String() string { return "hotpath" }

// hotCalleePackages are stdlib packages whose functions hot code may call
// freely: pure compute kernels with no allocation or dispatch.
var hotCalleePackages = map[string]bool{
	"math":      true,
	"math/bits": true,
}

func runHotReach(pass *analysis.Pass) (interface{}, error) {
	sup := indexSuppressions(pass)

	// Pass 1: collect and export the package's own markers, so callers in
	// this and every downstream package can see them.
	hot := map[*types.Func]bool{}
	var marked []*ast.FuncDecl
	for _, file := range pass.Files {
		if isTestFile(pass, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpath(fd) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				hot[fn] = true
				pass.ExportObjectFact(fn, &hotFact{})
			}
			if fd.Body != nil {
				marked = append(marked, fd)
			}
		}
	}

	isHot := func(fn *types.Func) bool {
		if hot[fn] {
			return true
		}
		if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
			return false
		}
		var f hotFact
		if pass.ImportObjectFact(fn, &f) {
			hot[fn] = true
			return true
		}
		return false
	}

	// Pass 2: check every marked body's call edges and allocations.
	for _, fd := range marked {
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if !sup.allowed(n.Pos(), "hotreach") {
					pass.Reportf(n.Pos(), "hotreach: closure created in hot-path function %s; a func literal allocates its environment every execution — hoist it to a declared function or a field bound at construction (or //bplint:allow hotreach -- <reason>)", name)
				}
				return false // the literal's body runs on its own schedule
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isStringType(pass, n.X) && !sup.allowed(n.Pos(), "hotreach") {
					pass.Reportf(n.Pos(), "hotreach: string concatenation in hot-path function %s allocates; precompute the string or log outside the kernel (or //bplint:allow hotreach -- <reason>)", name)
				}
			case *ast.CallExpr:
				checkHotCall(pass, sup, isHot, name, n)
			}
			return true
		})
	}
	return nil, nil
}

func isStringType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkHotCall applies the call-edge and allocation rules to one call in a
// hot body.
func checkHotCall(pass *analysis.Pass, sup *suppressions, isHot func(*types.Func) bool, name string, call *ast.CallExpr) {
	// Builtin allocators.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new", "append":
				if !sup.allowed(call.Pos(), "hotreach") {
					what := "allocates"
					if id.Name == "append" {
						what = "can grow its backing array"
					}
					pass.Reportf(call.Pos(), "hotreach: %s in hot-path function %s %s; preallocate at construction and reuse (or //bplint:allow hotreach -- <reason>)", id.Name, name, what)
				}
			}
			return
		}
	}

	// Conversions are not calls.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	fn := typeutil.StaticCallee(pass.TypesInfo, call)
	if fn == nil {
		// Func-value call (a bound method value) or interface dispatch:
		// the former is sanctioned, the latter is Hotpath's finding.
		return
	}

	pkg := fn.Pkg()
	switch {
	case pkg == nil || hotCalleePackages[pkg.Path()]:
		// Builtins attached to objects (error.Error has pkg nil) and the
		// pure stdlib kernels.
	case pkg.Path() == "fmt":
		if !sup.allowed(call.Pos(), "hotreach") {
			pass.Reportf(call.Pos(), "hotreach: fmt.%s call in hot-path function %s allocates and reflects; panic on a prebuilt constant or format off the hot path (or //bplint:allow hotreach -- <reason>)", fn.Name(), name)
		}
		return
	case !isHot(fn):
		if !sup.allowed(call.Pos(), "hotreach") {
			pass.Reportf(call.Pos(), "hotreach: hot-path function %s calls %s, which is not marked //bp:hotpath; mark the callee (it is now part of the per-cycle kernel) or move the call off the hot path (or //bplint:allow hotreach -- <reason>)", name, fn.FullName())
		}
		return
	}

	// Interface boxing at the call site: a concrete value passed to an
	// interface parameter allocates.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			break // variadic packing is its own allocation, caught by callee rules
		}
		if pi >= sig.Params().Len() {
			break
		}
		param := sig.Params().At(pi).Type()
		if !types.IsInterface(param) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointer-to-interface conversion does not copy the pointee
		}
		if !sup.allowed(arg.Pos(), "hotreach") {
			pass.Reportf(arg.Pos(), "hotreach: concrete value boxed into interface parameter %d of %s in hot-path function %s; boxing allocates per call (or //bplint:allow hotreach -- <reason>)", i+1, fn.Name(), name)
		}
	}
}
