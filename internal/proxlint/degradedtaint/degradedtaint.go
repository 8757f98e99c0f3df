// Package degradedtaint defines an analyzer that keeps degraded distance
// estimates out of durable and wire-visible state.
//
// When the fallible oracle is exhausted, core.Session.Dist (and the
// proxclient mirror) fall back to the bounds-midpoint estimate
// (lb+ub)/2 — an approximation that is fine to return to a caller that
// opted into degraded answers, but poisonous anywhere the library treats
// distances as exact: committed pgraph edges (the paper's
// output-preservation guarantee assumes committed weights are oracle
// results), cachestore writes (a cached estimate replays as truth
// forever), and api.WireFloat responses built from values the handler
// believed were resolved.
//
// The analyzer taints the result of every bounds-midpoint estimator — any
// method named "estimate" with signature func(int, int) float64 — and
// propagates with the dataflow engine. Functions that can return a
// tainted float64 export a "degraded" fact (core.Session.Dist earns one
// automatically), so the taint follows calls across package boundaries.
// Sinks:
//
//   - (pgraph.Graph).AddEdge weight arguments, and abstract AddEdge
//     methods of the same shape;
//   - any argument of a call into internal/cachestore;
//   - conversion to api.WireFloat.
//
// This is the load-bearing precursor to the weak/strong dual-oracle tier
// (ROADMAP): weak values will reuse exactly this discipline.
package degradedtaint

import (
	"go/ast"
	"go/types"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer flags degraded estimate values flowing into edge commits,
// cache writes, or wire responses.
var Analyzer = &analysis.Analyzer{
	Name: "degradedtaint",
	Doc: "values from degraded bounds-midpoint estimate paths must not flow into " +
		"pgraph edge commits, cachestore writes, or api.WireFloat responses",
	Run: run,
}

const labelDegraded = "degraded"

func run(pass *analysis.Pass) error {
	fns := collectFuncs(pass)

	// Phase 1: which functions can return a degraded float64? Fixed point
	// seeded by the estimate methods themselves and by imported
	// "degraded" facts; discoveries are exported for downstream packages.
	degraded := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if degraded[fn.obj] {
				continue
			}
			if returnsDegraded(pass, fn, degraded) {
				degraded[fn.obj] = true
				pass.ExportFact(fn.obj, "degraded", "")
				changed = true
			}
		}
	}

	// Phase 2: report taint reaching a sink.
	for _, fn := range fns {
		reportFunc(pass, fn, degraded)
	}
	return nil
}

type fnInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
}

func collectFuncs(pass *analysis.Pass) []fnInfo {
	var fns []fnInfo
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fns = append(fns, fnInfo{decl: fd, obj: obj})
		}
	}
	return fns
}

// isEstimator reports whether f is a bounds-midpoint estimator: a method
// named "estimate" with signature func(int, int) float64. The naming
// contract covers core.Session.estimate and the proxclient mirror — and
// any future estimator, which is the point of matching the shape.
func isEstimator(f *types.Func) bool {
	if f == nil || f.Name() != "estimate" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	return isBasic(sig.Params().At(0).Type(), types.Int) &&
		isBasic(sig.Params().At(1).Type(), types.Int) &&
		isBasic(sig.Results().At(0).Type(), types.Float64)
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func newTaint(pass *analysis.Pass, degraded map[*types.Func]bool) *analysis.TaintAnalysis {
	return &analysis.TaintAnalysis{
		Info: pass.TypesInfo,
		Source: func(e ast.Expr) string {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return ""
			}
			f := lintutil.Callee(pass.TypesInfo, call)
			if f == nil {
				return ""
			}
			if isEstimator(f) || degraded[f] || pass.HasFact(f, "degraded") {
				return labelDegraded
			}
			return ""
		},
	}
}

// returnsDegraded reports whether fn can return a tainted float64.
func returnsDegraded(pass *analysis.Pass, fn fnInfo, degraded map[*types.Func]bool) bool {
	found := false
	ta := newTaint(pass, degraded)
	ta.Visit = func(n ast.Node, st *analysis.TaintState) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return
		}
		for _, res := range ret.Results {
			if st.Label(res) != "" && isFloatExpr(pass.TypesInfo, res) {
				found = true
			}
		}
	}
	ta.Run(fn.decl.Body)
	return found
}

// isFloatExpr reports whether e is a float64, or a call's result tuple
// with a float64 in it: `return f()` forwards f's taint to the caller.
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isBasic(tup.At(i).Type(), types.Float64) {
				return true
			}
		}
		return false
	}
	return isBasic(tv.Type, types.Float64)
}

// reportFunc runs the sink checks over one function.
func reportFunc(pass *analysis.Pass, fn fnInfo, degraded map[*types.Func]bool) {
	ta := newTaint(pass, degraded)
	ta.Visit = func(n ast.Node, st *analysis.TaintState) {
		ast.Inspect(n, func(sub ast.Node) bool {
			if _, ok := sub.(*ast.FuncLit); ok {
				return false
			}
			call, ok := sub.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkSinkCall(pass, st, call)
			return true
		})
	}
	ta.Run(fn.decl.Body)
}

// checkSinkCall reports tainted arguments reaching one of the three
// sinks: edge commits, cachestore calls, and WireFloat conversions.
func checkSinkCall(pass *analysis.Pass, st *analysis.TaintState, call *ast.CallExpr) {
	// Conversion to api.WireFloat.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if isWireFloat(tv.Type) && len(call.Args) == 1 && st.Label(call.Args[0]) != "" {
			pass.Reportf(call.Args[0].Pos(),
				"degraded estimate converted to api.WireFloat; a caller cannot tell it from a resolved distance — send the bound interval or an explicit degraded marker instead")
		}
		return
	}
	f := lintutil.Callee(pass.TypesInfo, call)
	if f == nil {
		return
	}
	if isAddEdge(f) {
		for _, arg := range call.Args {
			if st.Label(arg) != "" {
				pass.Reportf(arg.Pos(),
					"degraded estimate committed as a pgraph edge weight; committed edges must be oracle-resolved distances (output preservation)")
			}
		}
		return
	}
	if f.Pkg() != nil && lintutil.InCachestorePackage(f.Pkg().Path()) {
		for _, arg := range call.Args {
			if st.Label(arg) != "" {
				pass.Reportf(arg.Pos(),
					"degraded estimate written to cachestore; a cached estimate replays as an exact distance forever")
			}
		}
	}
}

// isAddEdge matches (pgraph.Graph).AddEdge and abstract AddEdge methods
// with the (int, int, float64) shape.
func isAddEdge(f *types.Func) bool {
	if f.Name() != "AddEdge" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if f.Pkg() != nil && lintutil.InPgraphPackage(f.Pkg().Path()) {
		return true
	}
	return types.IsInterface(sig.Recv().Type()) && sig.Params().Len() == 3
}

// isWireFloat reports whether t is the api.WireFloat named type.
func isWireFloat(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "WireFloat" && obj.Pkg() != nil && lintutil.InAPIPackage(obj.Pkg().Path())
}
