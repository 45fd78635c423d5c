package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Hotpath enforces the simulator kernel's performance contract. Functions on
// the per-cycle path (Sim.step and its callees, Meter.EndCycle) are marked
// with a "//bp:hotpath" line in their doc comment; inside a marked function
// the analyzer forbids the three constructions whose cost or nondeterminism
// the kernelization removed:
//
//   - ranging over a map — besides the determinism hazard, map iteration is
//     an order of magnitude slower than the dense slices the hot path uses
//   - defer — a deferred call allocates a frame record and runs epilogue
//     code on every invocation, millions of times per simulated second
//   - calling a method through an interface — dynamic dispatch defeats
//     inlining; hot-path callees must be concrete, or func values bound at
//     construction (the simulator binds its predictor's hot methods once as
//     interface method values, e.g. s.predLookup = s.pred.Lookup)
//
// The marker binds one function, not its callees: every function on the hot
// path carries its own marker, so the contract is visible at each
// definition. An intentional exception (e.g. a panic-only error path) is
// suppressed with //bplint:allow hotpath.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid map iteration, defer, and interface-method calls in //bp:hotpath functions",
	Run:  runHotpath,
}

// hotpathMarker is the doc-comment line that opts a function into the check.
const hotpathMarker = "bp:hotpath"

// isHotpath reports whether the function declaration carries the marker.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.Contains(c.Text, hotpathMarker) {
			return true
		}
	}
	return false
}

func runHotpath(pass *analysis.Pass) (interface{}, error) {
	sup := indexSuppressions(pass)
	for _, file := range pass.Files {
		if isTestFile(pass, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					// A closure's body executes on its own schedule; the
					// marker binds the declared function only.
					return false
				case *ast.RangeStmt:
					if t := pass.TypesInfo.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap && !sup.allowed(n.Pos(), "hotpath") {
							pass.Reportf(n.Pos(), "hotpath: map iteration in hot-path function %s; use a dense slice (or //bplint:allow hotpath -- <reason>)", name)
						}
					}
				case *ast.DeferStmt:
					if !sup.allowed(n.Pos(), "hotpath") {
						pass.Reportf(n.Pos(), "hotpath: defer in hot-path function %s; run the epilogue inline (or //bplint:allow hotpath -- <reason>)", name)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s, ok := pass.TypesInfo.Selections[sel]
					if !ok || s.Kind() != types.MethodVal {
						return true
					}
					if types.IsInterface(s.Recv()) && !sup.allowed(n.Pos(), "hotpath") {
						pass.Reportf(n.Pos(), "hotpath: interface-method call %s.%s in hot-path function %s; bind a concrete method or a devirtualized function value at construction (or //bplint:allow hotpath -- <reason>)", types.TypeString(s.Recv(), types.RelativeTo(pass.Pkg)), sel.Sel.Name, name)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}
