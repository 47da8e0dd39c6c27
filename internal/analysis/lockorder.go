package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder detects inconsistent mutex acquisition order inside one package.
// It scans every function linearly, tracking the set of locks held (sync
// Mutex/RWMutex Lock, RLock, Unlock, RUnlock, and deferred unlocks), and
// records an edge A -> B whenever B is acquired while A is held. Two locks
// acquired in both orders anywhere in the package are a latent deadlock the
// scheduler will eventually find — exactly the class of bug a chaos soak
// reproduces once a month and a static graph finds in milliseconds.
//
// Lock identity is structural: the receiver's named type plus the selector
// path with indexes erased (worker.locks[i] means "some stripe"), so a
// self-edge on a striped lock array is reported only for genuinely nested
// acquisition of the same field. Local *sync.Mutex variables resolve through
// a single `v := &x.field` alias when one exists. Function literals are
// scanned as separate scopes — a callback does not hold its creator's locks.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutexes must be acquired in a consistent order across the package",
	Run:  runLockOrder,
}

// lockEdge is one observed "A held while acquiring B".
type lockEdge struct {
	from, to string
	pos      token.Pos
	fn       string
}

func runLockOrder(pass *Pass) {
	info := pass.TypesInfo
	edges := make(map[[2]string]lockEdge)

	for _, scope := range funcScopes(pass.Files) {
		aliases := lockAliases(info, scope)
		type lockOp struct {
			pos      token.Pos
			id       string
			acquire  bool
			deferred bool
		}
		var ops []lockOp
		deferredCalls := make(map[*ast.CallExpr]bool)
		inspectSkipFuncLit(scope.body, func(n ast.Node) {
			var call *ast.CallExpr
			deferred := false
			switch n := n.(type) {
			case *ast.DeferStmt:
				call, deferred = n.Call, true
				deferredCalls[call] = true
			case *ast.CallExpr:
				if deferredCalls[n] {
					return // already recorded via its DeferStmt
				}
				call = n
			default:
				return
			}
			method, recv := mutexMethod(info, call)
			if method == "" {
				return
			}
			id := lockIdentity(info, recv, aliases, scope.name)
			switch method {
			case "Lock", "RLock":
				ops = append(ops, lockOp{pos: call.Pos(), id: id, acquire: true, deferred: deferred})
			case "Unlock", "RUnlock":
				ops = append(ops, lockOp{pos: call.Pos(), id: id, acquire: false, deferred: deferred})
			}
		})
		sort.Slice(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })

		held := make(map[string]token.Pos)
		var order []string // acquisition order of currently held locks
		for _, op := range ops {
			if !op.acquire {
				if !op.deferred { // deferred unlocks release at return, not here
					delete(held, op.id)
					for i, h := range order {
						if h == op.id {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				}
				continue
			}
			for _, h := range order {
				key := [2]string{h, op.id}
				if _, seen := edges[key]; !seen {
					edges[key] = lockEdge{from: h, to: op.id, pos: op.pos, fn: scope.name}
				}
			}
			if _, dup := held[op.id]; !dup {
				held[op.id] = op.pos
				order = append(order, op.id)
			} else {
				// Nested acquisition of the same identity: immediate report.
				pass.Reportf(op.pos, "%s acquired while already held in %s (self-deadlock on a non-reentrant mutex)", op.id, scope.name)
			}
		}
	}

	// Any 2-cycle (or longer, found pairwise through transitive closure of
	// 2-cycles being the dominant real-world case) is an ordering violation.
	reported := make(map[[2]string]bool)
	var keys [][2]string
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0]+"\x00"+keys[i][1] < keys[j][0]+"\x00"+keys[j][1]
	})
	for _, k := range keys {
		e := edges[k]
		rev, ok := edges[[2]string{e.to, e.from}]
		if !ok || e.from == e.to {
			continue
		}
		pair := [2]string{e.from, e.to}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		if reported[pair] {
			continue
		}
		reported[pair] = true
		pass.Reportf(e.pos,
			"inconsistent lock order: %s -> %s here (in %s), but %s -> %s in %s at %s — pick one order or a deadlock is schedulable",
			e.from, e.to, e.fn, rev.from, rev.to, rev.fn, pass.Fset.Position(rev.pos))
	}
}

// mutexMethod returns the method name and receiver expression when call is
// a sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock.
func mutexMethod(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", nil
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return fn.Name(), sel.X
	}
	return "", nil
}

// lockAliases maps local mutex-pointer variables to the expression they
// alias, through single `v := &expr` / `v := expr` assignments.
func lockAliases(info *types.Info, scope funcScope) map[types.Object]ast.Expr {
	out := make(map[types.Object]ast.Expr)
	inspectSkipFuncLit(scope.body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := objOfIdent(info, id)
			if obj == nil || !isMutexType(obj.Type()) {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = u.X
			}
			if _, dup := out[obj]; dup {
				out[obj] = nil // multiple assignments: ambiguous, keep local identity
			} else {
				out[obj] = rhs
			}
		}
	})
	return out
}

func isMutexType(t types.Type) bool {
	return namedIn(t, "sync", "Mutex") || namedIn(t, "sync", "RWMutex")
}

// lockIdentity renders a stable structural name for the locked expression:
// receiver type + field path, indexes erased.
func lockIdentity(info *types.Info, e ast.Expr, aliases map[types.Object]ast.Expr, fnName string) string {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if obj := objOfIdent(info, id); obj != nil {
			if target, ok := aliases[obj]; ok && target != nil {
				return lockIdentity(info, target, nil, fnName)
			}
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name() // package-level mutex
			}
			if !isMutexType(obj.Type()) {
				// Receiver with an embedded mutex: anchor on the struct type.
				return rootTypeName(info, e) + ".Mutex"
			}
			// A local variable with no known alias: identity is scoped to
			// the function so unrelated locals never collide.
			return fnName + ":" + obj.Name()
		}
		return fnName + ":" + id.Name
	}
	var parts []string
	root := e
	for {
		switch cur := ast.Unparen(root).(type) {
		case *ast.SelectorExpr:
			parts = append([]string{cur.Sel.Name}, parts...)
			root = cur.X
		case *ast.IndexExpr:
			root = cur.X // erase the index: any stripe, same identity
		case *ast.StarExpr:
			root = cur.X
		default:
			return rootTypeName(info, root) + "." + strings.Join(parts, ".")
		}
	}
}

// rootTypeName names the type anchoring a lock path (the receiver struct).
func rootTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return fmt.Sprintf("%T", e)
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for {
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name()
		}
		if sl, ok := t.(*types.Slice); ok {
			t = sl.Elem()
			continue
		}
		if ar, ok := t.(*types.Array); ok {
			t = ar.Elem()
			continue
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		return t.String()
	}
}
