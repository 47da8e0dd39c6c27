package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIter certifies determinism of map iteration in superstep compute paths
// and in the engine's message path. Go randomizes map iteration order per
// range statement, so a Compute, ComputePartition, or Combine body (or
// anything in an algorithms package) that ranges over a map and, inside
// that loop, sends messages, updates an aggregator, or accumulates
// floating-point state produces run-dependent results: message order feeds
// combiners and float sums are not associative, so the recovery replay and
// the original run diverge bit-for-bit even with identical inputs. The same
// holds one layer down, in the core package's send path — Context.Send,
// SendToNeighbors and the send kernel behind both (send, the span send
// broadcast, appendRecord, appendBroadcast, stageRecord, encodeRemote, the
// fold kernels foldAny and foldSum, and the fold count's mark and
// markRare), a run's span add (addSpan), finishSlot, the barrier merge
// (deliver, install) and the receive-side decode (processBatch,
// decodeBatch) — where a map range decides the wire order and the order
// combiners fold in. Flagged: a range over a map whose body reaches
//
//   - Context/PartitionContext.Send, SendToNeighbors, or the kernel's send,
//     broadcast, appendRecord, appendBroadcast, stageRecord or
//     encodeRemote, or in core a run's addSpan (message order),
//   - a Combine or fold call, or in core one of the fold kernels (called
//     directly or through a func-typed field or variable) or mark (combine
//     order),
//   - Context/PartitionContext.Aggregate (aggregator fold order), or
//   - a floating-point accumulation (x += v, x = x + v and friends).
//
// The sanctioned idiom is to collect the keys, sort them, and range over
// the sorted slice — that loop is not a map range and passes untouched. A
// loop whose order provably cannot matter (integer max, set union) is opted
// out with //pregelvet:allow mapiter <reason> on the function, or per line
// with //pregelvet:ignore mapiter.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "map iteration order must not influence messages, combines, aggregates, or float accumulation in compute paths or the engine's send path",
	Run:  runMapIter,
}

func runMapIter(pass *Pass) {
	info := pass.TypesInfo
	for _, fd := range append(computePathFuncs(pass), engineSendPathFuncs(pass)...) {
		if hasAllow(fd.Doc, "mapiter") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if what := orderSensitiveWork(info, rs); what != "" {
				pass.Reportf(rs.Pos(),
					"range over a map in a compute path with %s in the body: iteration order changes run to run, so recovery replay diverges; iterate sorted keys, or annotate //pregelvet:allow mapiter with why order cannot matter",
					what)
			}
			return true
		})
	}
}

// engineSendPath names the core package's message-path functions: where a
// map range would decide the wire order or the order combiners fold in.
var engineSendPath = map[string]bool{
	"Send": true, "SendToNeighbors": true, "send": true, "broadcast": true,
	"appendRecord": true, "appendBroadcast": true, "stageRecord": true, "encodeRemote": true,
	"foldAny": true, "foldSum": true, "mark": true, "markRare": true, "addSpan": true,
	"finishSlot": true, "deliver": true, "install": true,
	"processBatch": true, "decodeBatch": true,
}

// engineSendPathFuncs yields the core package's message-path functions and
// methods.
func engineSendPathFuncs(pass *Pass) []*ast.FuncDecl {
	if !pkgHasSuffix(pass.Pkg, "core") {
		return nil
	}
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && engineSendPath[fd.Name.Name] {
				out = append(out, fd)
			}
		}
	}
	return out
}

// sendCalls names the Context methods that put a message on its way: the
// public sends and the engine's send kernel.
var sendCalls = map[string]bool{
	"Send": true, "SendToNeighbors": true, "send": true, "broadcast": true,
	"appendRecord": true, "appendBroadcast": true, "stageRecord": true, "encodeRemote": true,
}

// orderSensitiveWork scans a map-range body for work whose result depends on
// iteration order, returning a label for the first kind found ("" if none).
func orderSensitiveWork(info *types.Info, rs *ast.RangeStmt) string {
	what := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if coreFoldCall(info, n) {
				what = "combines"
				return false
			}
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			switch name := fn.Name(); {
			case name == "Combine" || name == "fold":
				what = "combines"
			case name == "addSpan" && pkgHasSuffix(fn.Pkg(), "core"):
				what = "message sends"
			case !recvNamedContext(fn):
			case sendCalls[name]:
				what = "message sends"
			case name == "Aggregate":
				what = "aggregator updates"
			}
		case *ast.AssignStmt:
			if floatAccum(info, n) {
				what = "floating-point accumulation"
			}
		}
		return true
	})
	return what
}

// coreFoldCall reports whether call is one of core's fold steps that the
// callee-based checks miss: a fold kernel called directly (generic ones
// through their instantiation) or through a func-typed field or variable
// such as the worker's fold, or a fold count's mark.
func coreFoldCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	switch obj := info.Uses[id].(type) {
	case *types.Func, *types.Var:
		name := obj.Name()
		return pkgHasSuffix(obj.Pkg(), "core") && (name == "mark" || strings.HasPrefix(name, "fold"))
	}
	return false
}

// floatAccum reports whether as accumulates into a float: x += v (and -=,
// *=, /=), or x = x <op> v where x reappears on the right.
func floatAccum(info *types.Info, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return len(as.Lhs) == 1 && isFloatExpr(info, as.Lhs[0])
	case token.ASSIGN:
	default:
		return false
	}
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isFloatExpr(info, as.Lhs[0]) {
		return false
	}
	bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	// The accumulator must reappear on the right: match a plain variable by
	// object, or a one-level selector (s.total) by base object + field name.
	var match func(n ast.Node) bool
	switch lhs := ast.Unparen(as.Lhs[0]).(type) {
	case *ast.Ident:
		obj := objOfIdent(info, lhs)
		if obj == nil {
			return false
		}
		match = func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			return ok && objOfIdent(info, id) == obj
		}
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(lhs.X).(*ast.Ident)
		if !ok {
			return false
		}
		obj := objOfIdent(info, base)
		if obj == nil {
			return false
		}
		match = func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != lhs.Sel.Name {
				return false
			}
			b, ok := ast.Unparen(sel.X).(*ast.Ident)
			return ok && objOfIdent(info, b) == obj
		}
	default:
		return false
	}
	found := false
	ast.Inspect(bin, func(n ast.Node) bool {
		if match(n) {
			found = true
		}
		return !found
	})
	return found
}

// isFloatExpr reports whether e's static type is a floating-point kind.
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
