// Package slackescape defines an analyzer that keeps ε-slack relaxed
// bounds out of durable and wire-visible state.
//
// Under a near-metric slack policy, core.Session.Bounds widens every
// derived interval through SlackPolicy.Relax: the endpoints it returns
// are deliberately NOT exact — they are the sound envelope
// [lb−ε, ub+ε] around the derived interval. That is fine for pruning
// decisions (the whole point of slack mode) but poisonous anywhere the
// library treats a float64 as an exact distance: committed pgraph edges
// (output preservation assumes committed weights are oracle results),
// cachestore writes (a cached relaxed endpoint replays as truth forever,
// and would then feed calibration as if the oracle had said it), and
// api.WireFloat responses on endpoints whose contract promises resolved
// values.
//
// The analyzer taints the results of every relaxation — any method named
// "Relax" with signature func(float64, float64, float64, float64)
// (float64, float64) — and propagates with the dataflow engine.
// Functions that can return a tainted float64 export a "slack" fact
// (core.Session.Bounds earns one automatically), so the taint follows
// calls across package boundaries. Sinks:
//
//   - (pgraph.Graph).AddEdge weight arguments, and abstract AddEdge
//     methods of the same shape;
//   - any argument of a call into internal/cachestore;
//   - conversion to api.WireFloat.
//
// Wire endpoints whose contract is "these are bounds" (the bounds
// handlers ship LB/UB as bounds, labeled as such, alongside the session
// ε) suppress the diagnostic with a //proxlint:allow directive carrying
// that rationale.
package slackescape

import (
	"go/ast"
	"go/types"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer flags relaxed ε-slack bound values flowing into edge commits,
// cache writes, or wire responses.
var Analyzer = &analysis.Analyzer{
	Name: "slackescape",
	Doc: "ε-slack relaxed bound values must not flow into pgraph edge commits, " +
		"cachestore writes, or api.WireFloat responses",
	Run: run,
}

const labelSlack = "slack"

func run(pass *analysis.Pass) error {
	fns := collectFuncs(pass)

	// Phase 1: which functions can return a relaxed float64? Fixed point
	// seeded by the Relax methods themselves and by imported "slack"
	// facts; discoveries are exported for downstream packages.
	slacked := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if slacked[fn.obj] {
				continue
			}
			if returnsSlack(pass, fn, slacked) {
				slacked[fn.obj] = true
				pass.ExportFact(fn.obj, labelSlack, "")
				changed = true
			}
		}
	}

	// Phase 2: report taint reaching a sink.
	for _, fn := range fns {
		reportFunc(pass, fn, slacked)
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

// isRelax reports whether f is an interval relaxation: a method named
// "Relax" with signature func(float64, float64, float64, float64)
// (float64, float64). The shape covers core.SlackPolicy.Relax — and any
// future relaxation, which is the point of matching the shape.
func isRelax(f *types.Func) bool {
	if f == nil || f.Name() != "Relax" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 4 || sig.Results().Len() != 2 {
		return false
	}
	for i := 0; i < 4; i++ {
		if !isBasic(sig.Params().At(i).Type(), types.Float64) {
			return false
		}
	}
	return isBasic(sig.Results().At(0).Type(), types.Float64) &&
		isBasic(sig.Results().At(1).Type(), types.Float64)
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func newTaint(pass *analysis.Pass, slacked map[*types.Func]bool) *analysis.TaintAnalysis {
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
			if isRelax(f) || slacked[f] || pass.HasFact(f, labelSlack) {
				return labelSlack
			}
			return ""
		},
	}
}

// returnsSlack reports whether fn can return a tainted float64.
func returnsSlack(pass *analysis.Pass, fn fnInfo, slacked map[*types.Func]bool) bool {
	found := false
	ta := newTaint(pass, slacked)
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
func reportFunc(pass *analysis.Pass, fn fnInfo, slacked map[*types.Func]bool) {
	ta := newTaint(pass, slacked)
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
				"relaxed ε-slack bound converted to api.WireFloat; a relaxed endpoint is not an exact distance — ship it only on an endpoint whose contract says bounds, with an allow directive saying so")
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
					"relaxed ε-slack bound committed as a pgraph edge weight; committed edges must be oracle-resolved distances (output preservation)")
			}
		}
		return
	}
	if f.Pkg() != nil && lintutil.InCachestorePackage(f.Pkg().Path()) {
		for _, arg := range call.Args {
			if st.Label(arg) != "" {
				pass.Reportf(arg.Pos(),
					"relaxed ε-slack bound written to cachestore; a cached relaxed endpoint replays as an exact distance forever and would poison calibration")
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
