// Package commitonce defines an analyzer that keeps oracle round-trips
// and their bookkeeping in lockstep.
//
// Session.oracleDistanceErr (and historically oracleDistance) performs
// the raw oracle call with no accounting; Session.commitResolution
// records exactly one resolution (statistics, partial graph, bound
// scheme, persistent store). The split exists so SharedSession can
// release its lock around the round-trip — but it also means the
// compiler no longer guarantees the pairing. A path that calls the
// round-trip without committing leaks an uncounted, unlearned resolution
// (Stats.OracleCalls undercounts and the bound scheme never tightens); a
// path that commits without a round-trip double-counts. This analyzer
// requires every function that touches either side to contain exactly
// one round-trip call followed by exactly one commitResolution call.
// (A failed round-trip that commits nothing still satisfies the pairing:
// the rule is one-to-one between call sites, not executions.) The batch
// primitives obey the same rule as their own pair: Session.fanOut makes
// a batch's round-trips with no accounting, and Session.commitBatch
// commits its results.
package commitonce

import (
	"go/ast"
	"go/token"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer enforces the one-to-one round-trip/commit pairing.
var Analyzer = &analysis.Analyzer{
	Name: "commitonce",
	Doc: "require every resolution path to pair exactly one oracle round-trip " +
		"(oracleDistance/oracleDistanceErr, or the batch fanOut) with exactly one " +
		"commit (commitResolution, or the batch commitBatch), in that order",
	Run: run,
}

// pairing is one round-trip/commit discipline: the raw, accounting-free
// round-trip primitives and the commit that must follow one of them.
type pairing struct {
	roundTrips map[string]bool
	commit     string
}

// pairings are the single-pair discipline — oracleDistance is the
// infallible original, oracleDistanceErr its error-propagating successor
// in the fallible-oracle subsystem — and the batch one.
var pairings = []pairing{
	{roundTrips: map[string]bool{"oracleDistance": true, "oracleDistanceErr": true}, commit: "commitResolution"},
	{roundTrips: map[string]bool{"fanOut": true}, commit: "commitBatch"},
}

// isPrimitive reports whether name is one of the paired primitives
// themselves, which the rule does not apply to.
func isPrimitive(name string) bool {
	for _, p := range pairings {
		if p.roundTrips[name] || name == p.commit {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isPrimitive(fd.Name.Name) {
				continue
			}
			for _, p := range pairings {
				check(pass, fd, p)
			}
		}
	}
	return nil
}

// check applies one pairing to one function.
func check(pass *analysis.Pass, fd *ast.FuncDecl, p pairing) {
	name := fd.Name.Name
	var oracleCalls, commitCalls []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch f := lintutil.Callee(pass.TypesInfo, call); {
		case f != nil && p.roundTrips[f.Name()]:
			oracleCalls = append(oracleCalls, call.Pos())
		case f != nil && f.Name() == p.commit:
			commitCalls = append(commitCalls, call.Pos())
		}
		return true
	})
	switch {
	case len(oracleCalls) == 0 && len(commitCalls) == 0:
		// Function does not participate in resolution.
	case len(oracleCalls) == 1 && len(commitCalls) == 1:
		if commitCalls[0] < oracleCalls[0] {
			pass.Reportf(commitCalls[0],
				"%s commits a resolution before the oracle round-trip; %s must follow the round-trip so the recorded distance is the one actually resolved", name, p.commit)
		}
	case len(oracleCalls) > 1 || len(commitCalls) > 1:
		pass.Reportf(fd.Name.Pos(),
			"%s contains %d oracle round-trip and %d %s calls; keep exactly one pair per function so the pairing stays mechanically checkable", name, len(oracleCalls), len(commitCalls), p.commit)
	case len(oracleCalls) == 1:
		pass.Reportf(oracleCalls[0],
			"%s performs an oracle round-trip without a matching %s: the round-trip would be uncounted in Stats.OracleCalls and invisible to the bound scheme", name, p.commit)
	default:
		pass.Reportf(commitCalls[0],
			"%s calls %s without a matching oracle round-trip: committing an unresolved pair double-counts Stats.OracleCalls", name, p.commit)
	}
}
