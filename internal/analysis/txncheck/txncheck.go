// Package txncheck verifies the transactional-timeline protocol
// (DESIGN.md §4, §9). A oneport.System.Begin or mapper.State.Begin opens a
// journaled transaction; the journal mark it takes is only released by
// Commit or Abort (Txn.Commit/Abort, State.Commit/Abort), and a
// transaction that escapes without resolution leaves the journal pinned —
// every later Rollback replays its entries, and the LIFO discipline panics
// on the next out-of-order resolve. Modeled on x/tools' lostcancel, the
// analyzer checks, for every Begin site, that Commit or Abort is reached on
// all paths out of the enclosing function:
//
//   - discarding the Begin result (`sys.Begin()`, `_ = sys.Begin()`) is
//     always a leak — nothing can ever resolve the transaction,
//   - a path that returns or falls off the function end while the
//     transaction is open is flagged at the Begin site,
//   - a Txn that escapes its scope — copied to another variable,
//     returned, stored in a composite, passed by value, address taken —
//     is flagged separately: a stale Txn copy can outlive its journal
//     mark and resolve it twice.
//
// A mapper transaction has no value to track: any State.Commit or
// State.Abort in the function resolves every mapper Begin site that
// reaches it. Resolution is matched per call site, not per nesting depth,
// so nested transactions in one function (a window transaction around a
// per-task retry) are each checked for reaching some resolve; the LIFO
// pairing itself is enforced at run time by the mapper's frame stack.
//
// The analysis is a structured abstract interpretation of the function
// body (if/for/range/switch/select, labeled break/continue, fallthrough,
// defer-based resolution, panic/os.Exit termination). `goto` makes the
// function unanalyzable and the Begin site is skipped. `defer txn.Abort()`
// — directly or in a deferred closure — resolves every subsequent path.
// Resolution inside a non-deferred closure or goroutine is not counted:
// nothing guarantees it runs before the function exits.
//
// See DESIGN.md §9 for the invariant and the //nolint:txncheck escape
// hatch.
package txncheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"streamsched/internal/analysis"
)

// Analyzer is the transaction-resolution checker.
var Analyzer = &analysis.Analyzer{
	Name: "txncheck",
	Doc:  "every oneport or mapper Begin must reach Commit or Abort on all paths, and Txn values must not escape",
	Run:  run,
}

var (
	oneportPath = analysis.Module + "/internal/oneport"
	mapperPath  = analysis.Module + "/internal/mapper"
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkBody(pass, fd.Body)
			}
		}
		// Function literals in package-level initializers.
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncDecl); ok {
				return false
			}
			if lit, ok := n.(*ast.FuncLit); ok {
				checkBody(pass, lit.Body)
				return false // checkBody handles nested literals
			}
			return true
		})
	}
	return nil
}

// checkBody analyzes one function scope. Nested function literals are
// separate scopes: a Begin inside a closure must resolve inside it.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Recurse into nested literals first, then analyze this scope with
	// literal subtrees opaque.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkBody(pass, lit.Body)
			return false
		}
		return true
	})
	for _, site := range collectBegins(pass, body) {
		checkSite(pass, body, site)
	}
}

// beginSite is one oneport or mapper Begin call in a function scope.
type beginSite struct {
	call   *ast.CallExpr
	mapper bool       // a mapper.State.Begin (resolved by State.Commit/Abort)
	obj    *types.Var // the Txn variable, nil for mapper sites or discarded results
	bad    string     // non-empty: misuse report instead of path analysis
}

func collectBegins(pass *analysis.Pass, body *ast.BlockStmt) []beginSite {
	var sites []beginSite
	walkScope(body, func(n ast.Node, parents []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		switch {
		case analysis.IsMethod(fn, oneportPath, "System", "Begin"):
			sites = append(sites, classifyBegin(pass, call, parents))
		case analysis.IsMethod(fn, mapperPath, "State", "Begin"):
			sites = append(sites, beginSite{call: call, mapper: true})
		}
	})
	return sites
}

// classifyBegin inspects how the Begin result is consumed: bound to a
// local (tracked), discarded (always a leak) or anything else (escape).
func classifyBegin(pass *analysis.Pass, call *ast.CallExpr, parents []ast.Node) beginSite {
	site := beginSite{call: call}
	if len(parents) == 0 {
		site.bad = "result of Begin discarded: nothing can Commit or Abort this transaction"
		return site
	}
	switch p := parents[len(parents)-1].(type) {
	case *ast.ExprStmt:
		site.bad = "result of Begin discarded: nothing can Commit or Abort this transaction"
	case *ast.AssignStmt:
		if len(p.Lhs) == 1 && len(p.Rhs) == 1 && p.Rhs[0] == call {
			if id, ok := p.Lhs[0].(*ast.Ident); ok {
				if id.Name == "_" {
					site.bad = "result of Begin discarded: nothing can Commit or Abort this transaction"
					return site
				}
				if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
					site.obj = v
					return site
				}
				if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
					site.obj = v
					return site
				}
			}
		}
		site.bad = "result of Begin must be bound to a local variable so Commit/Abort can resolve it"
	default:
		site.bad = "result of Begin escapes directly; bind it to a local variable and Commit or Abort it"
	}
	return site
}

func checkSite(pass *analysis.Pass, body *ast.BlockStmt, site beginSite) {
	if site.bad != "" {
		pass.Reportf(site.call.Pos(), "%s", site.bad)
		return
	}
	if site.obj != nil {
		checkEscapes(pass, body, site.obj)
	}
	in := &interp{pass: pass, site: site}
	f := in.stmtList(body.List, sNot)
	if in.bail {
		return // goto: unanalyzable, stay silent
	}
	if in.leaked || f.fall&sOpen != 0 {
		what := "transaction"
		if site.mapper {
			what = "mapper transaction"
		}
		pass.Reportf(site.call.Pos(),
			"%s begun here may not reach Commit or Abort on every path out of the function",
			what)
	}
}

// checkEscapes flags uses of the Txn variable other than method calls and
// field access: copies, returns, stored values, arguments, address-of.
func checkEscapes(pass *analysis.Pass, body *ast.BlockStmt, obj *types.Var) {
	walkScope(body, func(n ast.Node, parents []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return
		}
		if len(parents) == 0 {
			return
		}
		var msg string
		switch p := parents[len(parents)-1].(type) {
		case *ast.SelectorExpr:
			if p.X == id {
				return // txn.Commit(), txn.Transfer(...): fine
			}
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				msg = "address of transaction taken; a stale Txn reference can outlive its journal mark"
			}
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == id {
					return // reassignment target, not a copy
				}
			}
			msg = "transaction copied to another variable; stale Txn copies can resolve the journal mark twice"
		case *ast.ReturnStmt:
			msg = "transaction returned from the function that began it; resolve it here instead"
		case *ast.CallExpr:
			msg = "transaction passed by value; the callee's copy can outlive this journal mark"
		case *ast.CompositeLit, *ast.KeyValueExpr:
			msg = "transaction stored in a composite value; stale Txn copies can resolve the journal mark twice"
		}
		if msg == "" {
			msg = "transaction value escapes its scope; keep the Txn local and Commit or Abort it here"
		}
		pass.Reportf(id.Pos(), "%s", msg)
	})
}

// walkScope visits the function scope keeping a parent chain, without
// descending into nested function literals.
func walkScope(body *ast.BlockStmt, visit func(n ast.Node, parents []ast.Node)) {
	var parents []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				parents = parents[:len(parents)-1]
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok && m != n {
				return false
			}
			if m != n {
				visit(m, parents)
			}
			parents = append(parents, m)
			return true
		})
	}
	walk(body)
}

// ---- path interpretation ----

// mask is a set of transaction states reaching a program point.
type mask uint8

const (
	sNot  mask = 1 << iota // Begin not yet executed on this path
	sOpen                  // begun, not resolved
	sRes                   // resolved (Commit/Abort reached or deferred)
)

// flow summarizes executing a statement (list): the states that fall
// through, and the states carried by break/continue, keyed by label
// ("" = unlabeled).
type flow struct {
	fall  mask
	brks  map[string]mask
	conts map[string]mask
}

func (f *flow) addBrk(label string, m mask) {
	if m == 0 {
		return
	}
	if f.brks == nil {
		f.brks = map[string]mask{}
	}
	f.brks[label] |= m
}

func (f *flow) addCont(label string, m mask) {
	if m == 0 {
		return
	}
	if f.conts == nil {
		f.conts = map[string]mask{}
	}
	f.conts[label] |= m
}

// absorb merges the branch exits of g into f (fall is handled by callers).
func (f *flow) absorb(g flow) {
	for l, m := range g.brks {
		f.addBrk(l, m)
	}
	for l, m := range g.conts {
		f.addCont(l, m)
	}
}

// takeBrk removes and returns the break masks a loop/switch/select
// consumes: the unlabeled form plus its own label.
func takeBrk(g *flow, label string) mask {
	m := g.brks[""]
	delete(g.brks, "")
	if label != "" {
		m |= g.brks[label]
		delete(g.brks, label)
	}
	return m
}

// takeBrkLabeled removes only `break label` — used for labeled blocks and
// ifs, which an unlabeled break does not target.
func takeBrkLabeled(g *flow, label string) mask {
	if label == "" {
		return 0
	}
	m := g.brks[label]
	delete(g.brks, label)
	return m
}

func takeCont(g *flow, label string) mask {
	m := g.conts[""]
	delete(g.conts, "")
	if label != "" {
		m |= g.conts[label]
		delete(g.conts, label)
	}
	return m
}

type interp struct {
	pass   *analysis.Pass
	site   beginSite
	leaked bool // a return/function-end was reachable with the txn open
	bail   bool // goto seen: give up
}

func (i *interp) stmtList(list []ast.Stmt, in mask) flow {
	var f flow
	cur := in
	for _, s := range list {
		if cur == 0 || i.bail {
			break
		}
		sf := i.stmt(s, cur, "")
		f.absorb(sf)
		cur = sf.fall
	}
	f.fall = cur
	return f
}

func (i *interp) stmt(s ast.Stmt, in mask, label string) flow {
	switch s := s.(type) {
	case *ast.BlockStmt:
		f := i.stmtList(s.List, in)
		f.fall |= takeBrkLabeled(&f, label) // labeled block: break L falls out
		return f

	case *ast.LabeledStmt:
		return i.stmt(s.Stmt, in, s.Label.Name)

	case *ast.ReturnStmt:
		out := i.transfer(s, in)
		if out&sOpen != 0 {
			i.leaked = true
		}
		return flow{}

	case *ast.BranchStmt:
		var f flow
		switch s.Tok {
		case token.BREAK:
			f.addBrk(labelName(s), in)
		case token.CONTINUE:
			f.addCont(labelName(s), in)
		case token.GOTO:
			i.bail = true
		case token.FALLTHROUGH:
			f.fall = in // routed to the next clause by the switch interp
		}
		return f

	case *ast.IfStmt:
		in = i.transfer(s.Init, in)
		t := i.stmt(s.Body, in, "")
		var f flow
		f.absorb(t)
		f.fall = t.fall
		if s.Else != nil {
			e := i.stmt(s.Else, in, "")
			f.absorb(e)
			f.fall |= e.fall
		} else {
			f.fall |= in
		}
		f.fall |= takeBrkLabeled(&f, label)
		return f

	case *ast.ForStmt:
		entry := i.transfer(s.Init, in)
		return i.loop(s.Body, s.Post, entry, s.Cond != nil, label)

	case *ast.RangeStmt:
		entry := i.transfer(&ast.ExprStmt{X: s.X}, in)
		return i.loop(s.Body, nil, entry, true, label)

	case *ast.SwitchStmt:
		in = i.transfer(s.Init, in)
		if s.Tag != nil {
			in = i.transfer(&ast.ExprStmt{X: s.Tag}, in)
		}
		return i.switchClauses(s.Body.List, in, label)

	case *ast.TypeSwitchStmt:
		in = i.transfer(s.Init, in)
		in = i.transfer(s.Assign, in)
		return i.switchClauses(s.Body.List, in, label)

	case *ast.SelectStmt:
		var f flow
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cin := i.transfer(cc.Comm, in)
			cf := i.stmtList(cc.Body, cin)
			f.absorb(cf)
			f.fall |= cf.fall
		}
		if len(s.Body.List) == 0 {
			f.fall = 0 // empty select blocks forever
		}
		f.fall |= takeBrk(&f, label)
		return f

	case *ast.DeferStmt:
		if i.resolvesDeferred(s) {
			return flow{fall: resolveMask(in)}
		}
		return flow{fall: i.transfer(s, in)}

	default:
		// Simple statements: expression, assignment, declaration, send,
		// inc/dec, go, empty. A call that terminates the program closes
		// the path without a leak report.
		if es, ok := s.(*ast.ExprStmt); ok && i.terminates(es.X) {
			return flow{}
		}
		return flow{fall: i.transfer(s, in)}
	}
}

// switchClauses interprets expr/type switch bodies, chaining fallthrough
// falls into the next clause.
func (i *interp) switchClauses(clauses []ast.Stmt, in mask, label string) flow {
	var f flow
	hasDefault := false
	var carry mask // fallthrough from the previous clause
	for _, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		cf := i.stmtList(cc.Body, in|carry)
		f.absorb(cf)
		if endsWithFallthrough(cc.Body) {
			carry = cf.fall
		} else {
			f.fall |= cf.fall
			carry = 0
		}
	}
	f.fall |= carry // trailing fallthrough is illegal Go; be safe
	if !hasDefault {
		f.fall |= in
	}
	f.fall |= takeBrk(&f, label)
	return f
}

// loop interprets for/range bodies to a fixpoint over the 3-state mask.
// condExit: the loop can be left when its condition fails (for-with-cond,
// range); a bare `for` only exits through break.
func (i *interp) loop(body *ast.BlockStmt, post ast.Stmt, entry mask, condExit bool, label string) flow {
	bodyIn := entry
	var bf flow
	for iter := 0; iter < 4; iter++ {
		bf = i.stmtList(body.List, bodyIn)
		next := bodyIn | i.transfer(post, bf.fall|takeCont(&bf, label))
		if next == bodyIn {
			break
		}
		bodyIn = next
	}
	brkOut := takeBrk(&bf, label)
	takeCont(&bf, label) // already folded into bodyIn by the fixpoint
	var f flow
	f.absorb(bf)
	f.fall = brkOut
	if condExit {
		f.fall |= bodyIn
	}
	return f
}

// transfer applies the state transition of a straight-line statement:
// a Begin at this site opens the transaction; a matching resolve call
// closes it. Nested function literals are opaque.
func (i *interp) transfer(n ast.Node, in mask) mask {
	if n == nil || in == 0 {
		return in
	}
	out := in
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case call == i.site.call:
			out = sOpen
		case i.isResolve(call):
			out = resolveMask(out)
		}
		return true
	})
	return out
}

// resolveMask moves open (and already-resolved) states to resolved;
// not-yet-begun paths are unaffected.
func resolveMask(in mask) mask {
	if in&(sOpen|sRes) != 0 {
		return (in & sNot) | sRes
	}
	return in
}

// isResolve reports whether call resolves this site's transaction:
// Commit/Abort on the tracked Txn variable, or State.Commit/Abort for a
// mapper site.
func (i *interp) isResolve(call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(i.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if i.site.mapper {
		return analysis.IsMethod(fn, mapperPath, "State", "Commit") ||
			analysis.IsMethod(fn, mapperPath, "State", "Abort")
	}
	if !analysis.IsMethod(fn, oneportPath, "Txn", "Commit") &&
		!analysis.IsMethod(fn, oneportPath, "Txn", "Abort") {
		return false
	}
	if i.site.obj == nil {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := ast.Unparen(sel.X)
	if u, ok := recv.(*ast.UnaryExpr); ok && u.Op == token.AND {
		recv = ast.Unparen(u.X)
	}
	id, ok := recv.(*ast.Ident)
	return ok && i.pass.TypesInfo.Uses[id] == i.site.obj
}

// resolvesDeferred reports whether a defer statement guarantees
// resolution: `defer txn.Abort()` or a deferred closure whose body
// resolves the transaction.
func (i *interp) resolvesDeferred(d *ast.DeferStmt) bool {
	if i.isResolve(d.Call) {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != lit {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && i.isResolve(call) {
			found = true
		}
		return !found
	})
	return found
}

// terminates reports whether a call expression never returns:
// panic, os.Exit, runtime.Goexit, log.Fatal*. A path ending in one of
// these cannot leak a transaction into caller-visible state.
func (i *interp) terminates(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := i.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	fn := analysis.CalleeFunc(i.pass.TypesInfo, call)
	return analysis.IsPkgFunc(fn, "os", "Exit") ||
		analysis.IsPkgFunc(fn, "runtime", "Goexit") ||
		analysis.IsPkgFunc(fn, "log", "Fatal") ||
		analysis.IsPkgFunc(fn, "log", "Fatalf") ||
		analysis.IsPkgFunc(fn, "log", "Fatalln")
}

// endsWithFallthrough reports whether a case body's last statement is a
// fallthrough (possibly labeled, which gofmt rejects but the parser allows).
func endsWithFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	s := body[len(body)-1]
	for {
		ls, ok := s.(*ast.LabeledStmt)
		if !ok {
			break
		}
		s = ls.Stmt
	}
	bs, ok := s.(*ast.BranchStmt)
	return ok && bs.Tok == token.FALLTHROUGH
}

func labelName(s *ast.BranchStmt) string {
	if s.Label != nil {
		return s.Label.Name
	}
	return ""
}
