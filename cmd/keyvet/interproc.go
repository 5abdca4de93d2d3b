package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The interprocedural layer: a call graph over the module's declared
// functions plus per-function fact summaries, built from the same
// go/types information the syntactic rules use (stdlib-only, no SSA).
// Two facts are summarized and propagated to transitive callers:
//
//   - acquires: the set of non-local mutexes a function locks anywhere
//     in its body (directly or through calls), keyed by canonical name.
//   - blocks: the blocking operations a function can perform — channel
//     sends/receives, selects without default, WaitGroup.Wait,
//     time.Sleep, os.File.Sync (the WAL fsync), net.Conn I/O.
//
// A scope-level //keyvet:allow lockorder on a function declaration
// clears that function's exported summary: the allow vouches for the
// function's internal discipline (e.g. the WAL's deliberate
// fsync-under-lock ordering), so callers are not re-flagged for every
// path that reaches it.

// blockFact describes one blocking operation a function may perform.
type blockFact struct {
	desc string    // human-readable kind, e.g. "channel send"
	pos  token.Pos // where it happens (in the declaring function)
}

// funcFacts is the per-function summary.
type funcFacts struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *pkg
	c    *checker // the declaring package's directives

	acquires map[string]token.Pos // mutex key -> first acquisition site
	blocks   map[string]blockFact // desc -> first site
	calls    map[*types.Func]token.Pos

	// closed summaries after the fixpoint (nil until computed).
	transAcquires map[string]token.Pos
	transBlocks   map[string]blockFact
}

// program is the analyzed set of packages with summaries for every
// declared function in the concurrency scope.
type program struct {
	pkgs     []*pkg
	checkers map[*pkg]*checker
	funcs    map[*types.Func]*funcFacts
	decls    map[*types.Func]*ast.FuncDecl // every module FuncDecl, scope or not
}

// buildProgram indexes declarations and collects direct facts for every
// function declared in a concurrency-scope package.
func buildProgram(ps []*pkg, checkers map[*pkg]*checker) *program {
	pr := &program{
		pkgs:     ps,
		checkers: checkers,
		funcs:    make(map[*types.Func]*funcFacts),
		decls:    make(map[*types.Func]*ast.FuncDecl),
	}
	for _, p := range ps {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				pr.decls[fn] = fd
				if !concurrencyScope(p.Path) {
					continue
				}
				ff := &funcFacts{
					fn:       fn,
					decl:     fd,
					pkg:      p,
					c:        checkers[p],
					acquires: make(map[string]token.Pos),
					blocks:   make(map[string]blockFact),
					calls:    make(map[*types.Func]token.Pos),
				}
				pr.funcs[fn] = ff
				ff.collect()
			}
		}
	}
	pr.fixpoint()
	return pr
}

// collect walks the function body once, recording direct lock
// acquisitions, blocking operations, and static callees. Function
// literals are part of the body here — a literal that sends on a
// channel makes the enclosing function "able to block" only if it is
// invoked, but for summary purposes we take the conservative view only
// for immediately-invoked literals; deferred/spawned/stored literals
// run on their own goroutine or schedule and are skipped. So is the
// function a go statement spawns: only its arguments are evaluated here.
func (ff *funcFacts) collect() {
	nb := nonBlockingComms(ff.decl.Body)
	skipLits := escapingFuncLits(ff.decl.Body)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && skipLits[fl] {
			return false
		}
		switch e := n.(type) {
		case *ast.GoStmt:
			for _, arg := range e.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.SendStmt:
			if !nb[n] {
				ff.addBlock("channel send", e.Pos())
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && !nb[n] {
				ff.addBlock("channel receive", e.Pos())
			}
		case *ast.SelectStmt:
			if !selectHasDefault(e) {
				ff.addBlock("blocking select", e.Pos())
			}
		case *ast.RangeStmt:
			if t := ff.pkg.Info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					ff.addBlock("range over channel", e.Pos())
				}
			}
		case *ast.CallExpr:
			if key, locking, isMutex := mutexOpIn(ff.pkg, e); isMutex {
				if locking && key != "" {
					if _, ok := ff.acquires[key]; !ok {
						ff.acquires[key] = e.Pos()
					}
				}
				return true
			}
			if desc, ok := blockingCall(ff.pkg, e); ok {
				ff.addBlock(desc, e.Pos())
				return true
			}
			if fn, ok := calleeObject(ff.pkg.Info, e).(*types.Func); ok && fn != nil {
				if _, seen := ff.calls[fn]; !seen {
					ff.calls[fn] = e.Pos()
				}
			}
		}
		return true
	}
	ast.Inspect(ff.decl.Body, visit)
}

func (ff *funcFacts) addBlock(desc string, pos token.Pos) {
	if _, ok := ff.blocks[desc]; !ok {
		ff.blocks[desc] = blockFact{desc: desc, pos: pos}
	}
}

// escapingFuncLits returns the function literals in body that are NOT
// immediately invoked: goroutine bodies, deferred closures, stored or
// passed callbacks. Their facts do not belong to the enclosing
// function's synchronous summary.
func escapingFuncLits(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if ok {
			out[fl] = true
		}
		return true
	})
	// Un-mark immediately invoked literals: (func(){...})() or func(){...}().
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			delete(out, fl)
		}
		return true
	})
	return out
}

// nonBlockingComms marks the communication operations that appear as
// the comm clause of a select WITH a default: those never block.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || !selectHasDefault(sel) {
			return true
		}
		for _, cl := range sel.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				switch e := m.(type) {
				case *ast.SendStmt:
					out[e] = true
				case *ast.UnaryExpr:
					if e.Op == token.ARROW {
						out[e] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies a call expression as an intrinsically
// blocking operation. sync.Cond.Wait is deliberately absent: it
// releases the associated lock while waiting, so "held across Wait" is
// the mechanism working as designed, not a stall.
func blockingCall(p *pkg, call *ast.CallExpr) (string, bool) {
	fn, ok := calleeObject(p.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if fn.Name() == "Wait" && recvNamed(fn) == "WaitGroup" {
			return "sync.WaitGroup.Wait", true
		}
	case "os", framePath:
		// frame.File is the seam frame.Log fsyncs through; *os.File in
		// production, so the two are one blocking operation.
		if fn.Name() == "Sync" && recvNamed(fn) == "File" {
			return "os.File.Sync (fsync)", true
		}
	}
	return "", false
}

// recvNamed returns the name of a method's receiver type ("" for
// plain functions).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// mutexOpIn classifies a call as a sync.Mutex/RWMutex lock or unlock in
// package p, returning a canonical cross-package key for the mutex. ""
// means the mutex is function-local (the write-serializer pattern) and
// exempt from tracking.
func mutexOpIn(p *pkg, call *ast.CallExpr) (key string, locking, isMutex bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch recvNamed(fn) {
	case "Mutex", "RWMutex":
	default:
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		locking = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	return mutexKey(p, sel), locking, true
}

// mutexKey derives the canonical identity of the mutex a selector call
// names. A struct-field mutex is keyed by its owning named type
// ("pkg.Type.field"), so every call site through any receiver variable
// maps to the same graph node; a package-level mutex is keyed by
// "pkg.var"; a function-local mutex returns "".
func mutexKey(p *pkg, sel *ast.SelectorExpr) string {
	recv := ast.Unparen(sel.X)
	// s.mu.Lock(): recv is the selector s.mu naming a field.
	if fsel, ok := recv.(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[fsel]; ok {
			if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
				if owner := namedOwner(s.Recv()); owner != "" {
					return owner + "." + v.Name()
				}
				// Field of an unnamed struct: local composites are the
				// serializer pattern and exempt; package-level ones are
				// keyed by their expression.
				if id, ok := fsel.X.(*ast.Ident); ok {
					if bv, ok := p.Info.Uses[id].(*types.Var); ok && !bv.IsField() &&
						(bv.Pkg() == nil || bv.Parent() != bv.Pkg().Scope()) {
						return ""
					}
				}
				return qualified(v.Pkg(), types.ExprString(fsel))
			}
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		if v, ok := p.Info.Uses[id].(*types.Var); ok && !v.IsField() && isSyncMutex(v.Type()) {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return qualified(v.Pkg(), v.Name())
			}
			return "" // function-local mutex value: exempt
		}
	}
	// x.Lock() where the method is promoted from an embedded Mutex, or
	// any other shape: key by the receiver expression's named type.
	if t := p.Info.TypeOf(recv); t != nil {
		if owner := namedOwner(t); owner != "" {
			return owner + "." + sel.Sel.Name
		}
	}
	return qualified(p.Types, types.ExprString(recv))
}

// isSyncMutex reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex itself — the shape of a standalone mutex
// variable, as opposed to a struct that embeds one.
func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return named.Obj().Pkg().Path() == "sync" && (name == "Mutex" || name == "RWMutex")
}

// namedOwner renders the named type behind t (unwrapping a pointer) as
// "pkgpath.Name", or "" when t is unnamed.
func namedOwner(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func qualified(p *types.Package, name string) string {
	if p == nil {
		return name
	}
	return p.Path() + "." + name
}

// fixpoint closes acquires and blocks over the call graph. A function
// whose declaration carries a scope-level lockorder allow exports an
// empty summary: its discipline is vouched for at the source.
func (pr *program) fixpoint() {
	for _, ff := range pr.funcs {
		ff.transAcquires = make(map[string]token.Pos, len(ff.acquires))
		for k, v := range ff.acquires {
			ff.transAcquires[k] = v
		}
		ff.transBlocks = make(map[string]blockFact, len(ff.blocks))
		for k, v := range ff.blocks {
			ff.transBlocks[k] = v
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ff := range pr.funcs {
			for callee := range ff.calls {
				cf, ok := pr.funcs[callee]
				if !ok || cf.summaryCleared() {
					continue
				}
				for k, v := range cf.transAcquires {
					if _, ok := ff.transAcquires[k]; !ok {
						ff.transAcquires[k] = v
						changed = true
					}
				}
				for k, v := range cf.transBlocks {
					if _, ok := ff.transBlocks[k]; !ok {
						ff.transBlocks[k] = v
						changed = true
					}
				}
			}
		}
	}
}

// summaryCleared reports whether this function's summary is emptied for
// propagation by a scope-level lockorder allow.
func (ff *funcFacts) summaryCleared() bool {
	return ff.c != nil && ff.c.scopeAllowsFunc(ff.decl, ruleLockOrder)
}

// summaryFor returns the closed facts for a static callee, or nil when
// the callee is outside the analyzed scope (stdlib, other packages,
// interface methods).
func (pr *program) summaryFor(fn *types.Func) *funcFacts {
	ff, ok := pr.funcs[fn]
	if !ok || ff.summaryCleared() {
		return nil
	}
	return ff
}

// checkProgram runs the cross-package rules — lockorder over the
// concurrency scope, atomicmix over every analyzed package — and
// returns their findings (unsorted; the caller merges and sorts).
func checkProgram(ps []*pkg, checkers map[*pkg]*checker) []finding {
	if checkers == nil {
		checkers = make(map[*pkg]*checker, len(ps))
	}
	for _, p := range ps {
		if checkers[p] == nil {
			checkers[p] = newChecker(p)
		}
	}
	pr := buildProgram(ps, checkers)
	var all []finding
	all = append(all, checkLockOrder(pr)...)
	all = append(all, checkAtomicMix(ps, checkers)...)
	return all
}

// runChecks is the full gate: per-package rules on each package, then
// the cross-package rules over the whole set, merged in position order.
func runChecks(ps []*pkg) []finding {
	checkers := make(map[*pkg]*checker, len(ps))
	var all []finding
	for _, p := range ps {
		c := newChecker(p)
		checkers[p] = c
		c.run()
		all = append(all, c.findings...)
	}
	all = append(all, checkProgram(ps, checkers)...)
	sortFindings(all)
	return all
}
