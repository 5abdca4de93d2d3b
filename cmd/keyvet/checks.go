package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule names; these are what findings carry and what //keyvet:allow
// directives name.
const (
	ruleHotloop      = "hotloop"
	ruleLockConn     = "lockconn"
	ruleMetricName   = "metricname"
	ruleSwallowedErr = "swallowederr"
	ruleLockOrder    = "lockorder"
	ruleClockSeam    = "clockseam"
	ruleGoLeak       = "goleak"
	ruleAtomicMix    = "atomicmix"
)

// Package scopes the rules are bound to.
const (
	telemetryPath  = "keysearch/internal/telemetry"
	netprotoPath   = "keysearch/internal/netproto"
	dispatchPath   = "keysearch/internal/dispatch"
	jobsPath       = "keysearch/internal/jobs"
	fleetsimPath   = "keysearch/internal/fleetsim"
	simPath        = "keysearch/internal/sim"
	shardplanePath = "keysearch/internal/shardplane"
	framePath      = "keysearch/internal/frame"
)

// concurrencyScope lists the control-plane packages the interprocedural
// rules (lockorder, goleak) cover: where PRs 4-7 fixed lifecycle races
// by hand, the analyzers now stand guard — and internal/frame, whose
// summaries let lockorder see a mutex held across Log.Append's fsync.
func concurrencyScope(path string) bool {
	return inScope(path, jobsPath) || inScope(path, netprotoPath) ||
		inScope(path, dispatchPath) || inScope(path, fleetsimPath) ||
		inScope(path, shardplanePath) || inScope(path, framePath)
}

// clockSeamScope lists the packages whose time must flow through
// sim.Clock: the virtual-time seam from PR 7 only rehearses reality if
// no code path consults the wall clock behind its back. internal/sim
// itself is in scope so that nothing but the Wall implementation (the
// single sanctioned crossing) touches package time. The sharded control
// plane joins the scope because its failover rehearsal runs in virtual
// time: a stray wall-clock read there would desynchronize promotions.
// internal/frame times the WAL fsync on the clock the store hands it.
func clockSeamScope(path string) bool {
	return inScope(path, jobsPath) || inScope(path, fleetsimPath) ||
		inScope(path, simPath) || inScope(path, shardplanePath) ||
		inScope(path, framePath)
}

// finding is one reported violation.
type finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// checkPackage runs every per-package rule that applies and returns
// the surviving (not //keyvet:allow'ed) findings in position order.
// The cross-package rules (lockorder, atomicmix) run in checkProgram.
func checkPackage(p *pkg) []finding {
	c := newChecker(p)
	c.run()
	sortFindings(c.findings)
	return c.findings
}

// run executes the per-package rules.
func (c *checker) run() {
	p := c.p
	for _, f := range p.Files {
		c.hotloops(f)
	}
	if p.Path != telemetryPath {
		for _, f := range p.Files {
			c.metricNames(f)
		}
	}
	if inScope(p.Path, netprotoPath) {
		for _, f := range p.Files {
			c.lockConn(f)
		}
	}
	if inScope(p.Path, dispatchPath) {
		for _, f := range p.Files {
			c.swallowedErrs(f)
		}
	}
	if clockSeamScope(p.Path) {
		for _, f := range p.Files {
			c.clockSeam(f)
		}
	}
	if concurrencyScope(p.Path) {
		c.goLeaks()
	}
}

func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

func inScope(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

// scopeAllow is a //keyvet:allow directive in a function declaration's
// doc comment: the named rules are suppressed for the whole function
// body, not just one line.
type scopeAllow struct {
	file       string
	start, end int // line range of the declaration, inclusive
	rules      map[string]bool
}

type checker struct {
	p        *pkg
	hot      map[string]bool            // "file:line" bearing //keyvet:hotloop
	allow    map[string]map[string]bool // "file:line" -> allowed rules
	scopes   []scopeAllow               // function-scoped allows
	findings []finding
}

// newChecker builds a checker with the package's directives collected.
func newChecker(p *pkg) *checker {
	c := &checker{
		p:     p,
		hot:   make(map[string]bool),
		allow: make(map[string]map[string]bool),
	}
	for _, f := range p.Files {
		c.directives(f)
	}
	for _, f := range p.Files {
		c.scopeDirectives(f)
	}
	return c
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// parseAllow extracts the rule names from the text following a
// keyvet:allow directive; a parenthesis starts prose.
func parseAllow(rest string, into map[string]bool) {
	for _, field := range strings.Fields(rest) {
		if strings.HasPrefix(field, "(") {
			break // rest of the line is prose
		}
		into[field] = true
	}
}

// directives collects //keyvet:hotloop marks and //keyvet:allow
// suppressions from a file's comments.
func (c *checker) directives(f *ast.File) {
	for _, cg := range f.Comments {
		for _, co := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(co.Text, "//"))
			pos := c.p.Fset.Position(co.Pos())
			if strings.HasPrefix(text, "keyvet:hotloop") {
				c.hot[lineKey(pos.Filename, pos.Line)] = true
			}
			if rest, ok := strings.CutPrefix(text, "keyvet:allow"); ok {
				rules := c.allow[lineKey(pos.Filename, pos.Line)]
				if rules == nil {
					rules = make(map[string]bool)
					c.allow[lineKey(pos.Filename, pos.Line)] = rules
				}
				parseAllow(rest, rules)
			}
		}
	}
}

// scopeDirectives promotes //keyvet:allow directives appearing in a
// function declaration's doc comment to function scope: the listed
// rules are suppressed everywhere in the declaration, so a deliberate
// pattern (the WAL's fsync-under-lock ordering, say) is documented once
// at the function head instead of line by line.
func (c *checker) scopeDirectives(f *ast.File) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		rules := make(map[string]bool)
		for _, co := range fd.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(co.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "keyvet:allow"); ok {
				parseAllow(rest, rules)
			}
		}
		if len(rules) == 0 {
			continue
		}
		start := c.p.Fset.Position(fd.Pos())
		end := c.p.Fset.Position(fd.End())
		c.scopes = append(c.scopes, scopeAllow{file: start.Filename, start: start.Line, end: end.Line, rules: rules})
	}
}

// allowed reports whether a finding of rule at pos is suppressed: a
// line-level //keyvet:allow on the same or preceding line wins first,
// then a scope-level allow on the enclosing function declaration.
func (c *checker) allowed(position token.Position, rule string) bool {
	for _, line := range []int{position.Line, position.Line - 1} {
		if rules := c.allow[lineKey(position.Filename, line)]; rules != nil && (rules[rule] || rules["all"]) {
			return true
		}
	}
	for _, s := range c.scopes {
		if s.file == position.Filename && s.start <= position.Line && position.Line <= s.end &&
			(s.rules[rule] || s.rules["all"]) {
			return true
		}
	}
	return false
}

// scopeAllowsFunc reports whether the given function declaration carries
// a scope-level allow for rule. The interprocedural layer uses it to
// clear a vouched-for function's summary: an allow on the store's append
// documents the fsync-under-lock ordering for every caller at once.
func (c *checker) scopeAllowsFunc(fd *ast.FuncDecl, rule string) bool {
	if fd == nil {
		return false
	}
	pos := c.p.Fset.Position(fd.Pos())
	for _, s := range c.scopes {
		if s.file == pos.Filename && s.start <= pos.Line && pos.Line <= s.end &&
			(s.rules[rule] || s.rules["all"]) {
			return true
		}
	}
	return false
}

// report records a finding unless an allow directive suppresses it.
func (c *checker) report(pos token.Pos, rule, msg string) {
	position := c.p.Fset.Position(pos)
	if c.allowed(position, rule) {
		return
	}
	c.findings = append(c.findings, finding{Pos: position, Rule: rule, Msg: msg})
}

// ---------------------------------------------------------------------------
// hotloop: no allocation, map access, interface conversion or telemetry
// calls inside loops marked //keyvet:hotloop.

func (c *checker) hotloops(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var pos token.Pos
		switch s := n.(type) {
		case *ast.ForStmt:
			pos = s.For
		case *ast.RangeStmt:
			pos = s.For
		default:
			return true
		}
		p := c.p.Fset.Position(pos)
		if c.hot[lineKey(p.Filename, p.Line)] || c.hot[lineKey(p.Filename, p.Line-1)] {
			c.checkHot(n)
			return false // nested loops are covered by checkHot's walk
		}
		return true
	})
}

func (c *checker) checkHot(loop ast.Node) {
	info := c.p.Info
	ast.Inspect(loop, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CompositeLit:
			c.report(e.Pos(), ruleHotloop, "composite literal allocates in a hot loop")
		case *ast.FuncLit:
			c.report(e.Pos(), ruleHotloop, "function literal allocates in a hot loop")
		case *ast.TypeAssertExpr:
			if e.Type != nil {
				c.report(e.Pos(), ruleHotloop, "type assertion in a hot loop")
			}
		case *ast.TypeSwitchStmt:
			c.report(e.Pos(), ruleHotloop, "type switch in a hot loop")
		case *ast.IndexExpr:
			if t := info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					c.report(e.Pos(), ruleHotloop, "map access in a hot loop")
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					c.report(e.Pos(), ruleHotloop, "map iteration in a hot loop")
				}
			}
		case *ast.CallExpr:
			c.checkHotCall(e)
		}
		return true
	})
}

func (c *checker) checkHotCall(call *ast.CallExpr) {
	info := c.p.Info

	// Builtins: make/new/append allocate, delete writes a map. len, cap
	// and copy are free.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				c.report(call.Pos(), ruleHotloop, b.Name()+" allocates in a hot loop")
			case "delete":
				c.report(call.Pos(), ruleHotloop, "map delete in a hot loop")
			}
			return
		}
	}

	// Conversions: interface targets box, string<->slice targets copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		dst := info.TypeOf(call)
		if dst == nil || len(call.Args) != 1 {
			return
		}
		src := info.TypeOf(call.Args[0])
		if _, ok := dst.Underlying().(*types.Interface); ok {
			c.report(call.Pos(), ruleHotloop, "conversion to interface type in a hot loop")
			return
		}
		if src != nil && allocatingStringConv(dst, src) {
			c.report(call.Pos(), ruleHotloop, "allocating string conversion in a hot loop")
		}
		return
	}

	// Telemetry: any call into the telemetry package is per-candidate
	// instrumentation; batch per chunk outside the loop instead.
	if obj := calleeObject(info, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == telemetryPath {
		c.report(call.Pos(), ruleHotloop, "telemetry call in a hot loop (batch per chunk outside the loop)")
		return
	}

	// Implicit interface conversions at the call boundary: a concrete
	// argument passed to an interface parameter boxes (and usually
	// escapes) per iteration.
	sigType := info.TypeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, ok := at.Underlying().(*types.Interface); ok {
			continue
		}
		c.report(arg.Pos(), ruleHotloop, "implicit interface conversion at call boundary in a hot loop")
	}
}

// allocatingStringConv reports whether a conversion between dst and src
// copies memory (string <-> []byte / []rune).
func allocatingStringConv(dst, src types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isSlice := func(t types.Type) bool {
		_, ok := t.Underlying().(*types.Slice)
		return ok
	}
	return (isString(dst) && isSlice(src)) || (isSlice(dst) && isString(src))
}

// calleeObject resolves the object a call's function expression names
// (function, method, builtin, or variable), or nil for anonymous calls.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// ---------------------------------------------------------------------------
// metricname: metric names passed to the telemetry registry must come
// from the telemetry/names.go constants, never string literals.

func (c *checker) metricNames(f *ast.File) {
	info := c.p.Info
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(info, call)
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != telemetryPath {
			return true
		}
		switch fn.Name() {
		case "Counter", "Gauge", "Meter", "Histogram", "PerNode", "PerTenant":
		default:
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if lit := stringLitIn(call.Args[0]); lit != nil {
			c.report(lit.Pos(), ruleMetricName,
				fmt.Sprintf("metric name passed to telemetry.%s from a string literal; use the telemetry/names.go constants", fn.Name()))
		}
		return true
	})
}

// stringLitIn returns a string literal appearing in the expression
// (including concatenations), without descending into nested calls —
// their own arguments are checked when that call is visited.
func stringLitIn(e ast.Expr) *ast.BasicLit {
	var found *ast.BasicLit
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := n.(*ast.CallExpr); ok {
			return false
		}
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			found = lit
			return false
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// lockconn: no mutex held across a connection write or read in the
// network protocol. Function-local mutexes (the per-connection write
// serializers) are exempt; struct-field and package-level mutexes are
// tracked, because holding them across a blockable syscall stalls every
// other path through the lock.

func (c *checker) lockConn(f *ast.File) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		c.walkLocked(fd.Body.List, map[string]token.Pos{})
	}
	// Function literals run with their own lock discipline; analyze each
	// body as an independent function.
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			c.walkLocked(fl.Body.List, map[string]token.Pos{})
		}
		return true
	})
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	cp := make(map[string]token.Pos, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

func (c *checker) walkLocked(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		c.walkStmt(s, held)
	}
}

func (c *checker) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if key, locking, isMutex := c.mutexOp(call); isMutex {
				if key == "" {
					return // function-local mutex: exempt
				}
				if locking {
					held[key] = call.Pos()
				} else {
					delete(held, key)
				}
				return
			}
		}
		c.scanIO(st.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock to the end of the function;
		// nothing to update. Other deferred work runs at return time.
		if _, _, isMutex := c.mutexOp(st.Call); isMutex {
			return
		}
	case *ast.BlockStmt:
		c.walkLocked(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			c.walkStmt(st.Init, held)
		}
		c.scanIO(st.Cond, held)
		c.walkLocked(st.Body.List, copyHeld(held))
		if st.Else != nil {
			c.walkStmt(st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			c.walkStmt(st.Init, held)
		}
		if st.Cond != nil {
			c.scanIO(st.Cond, held)
		}
		c.walkLocked(st.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		c.scanIO(st.X, held)
		c.walkLocked(st.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.walkStmt(st.Init, held)
		}
		if st.Tag != nil {
			c.scanIO(st.Tag, held)
		}
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkLocked(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkLocked(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if cc.Comm != nil {
					c.walkStmt(cc.Comm, copyHeld(held))
				}
				c.walkLocked(cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		c.walkStmt(st.Stmt, held)
	case *ast.GoStmt:
		// A spawned goroutine does not hold the caller's locks.
	default:
		c.scanIO(s, held)
	}
}

// mutexOp classifies a call as a sync lock or unlock. The returned key
// identifies the mutex expression; "" means the mutex is a function-local
// variable and the operation is exempt from tracking.
func (c *checker) mutexOp(call *ast.CallExpr) (key string, locking, isMutex bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := c.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		locking = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	recv := ast.Unparen(sel.X)
	if id, ok := recv.(*ast.Ident); ok {
		if v, ok := c.p.Info.Uses[id].(*types.Var); ok &&
			!v.IsField() && v.Parent() != c.p.Types.Scope() {
			return "", locking, true // function-local mutex
		}
	}
	return types.ExprString(recv), locking, true
}

// scanIO reports connection reads/writes in the subtree while any
// tracked mutex is held. Function literals are skipped: they execute
// under their own discipline.
func (c *checker) scanIO(n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		desc, isIO := c.connIO(call)
		if !isIO {
			return true
		}
		names := make([]string, 0, len(held))
		for k := range held {
			names = append(names, k)
		}
		sort.Strings(names)
		c.report(call.Pos(), ruleLockConn,
			fmt.Sprintf("mutex %s held across %s; release it before touching the connection", strings.Join(names, ", "), desc))
		return true
	})
}

// connIO classifies a call as network I/O: the protocol's frame
// functions, or a Read/Write method on a net.Conn.
func (c *checker) connIO(call *ast.CallExpr) (string, bool) {
	obj := calleeObject(c.p.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	if (name == "WriteFrame" || name == "ReadFrame") && inScope(fn.Pkg().Path(), netprotoPath) {
		return "netproto." + name, true
	}
	if name != "Write" && name != "Read" {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	t := c.p.Info.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if named.Obj().Pkg().Path() == "net" && named.Obj().Name() == "Conn" {
		return "net.Conn." + name, true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// swallowederr: the dispatch package's requeue machinery is the fault
// tolerance guarantee; every error must reach a handler. Discarding one
// (call-statement or blank assignment) needs an explicit allow.

func (c *checker) swallowedErrs(f *ast.File) {
	info := c.p.Info
	errorType := types.Universe.Lookup("error").Type()
	isError := func(t types.Type) bool {
		return t != nil && types.Identical(t, errorType)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			t := info.TypeOf(call)
			switch rt := t.(type) {
			case *types.Tuple:
				for i := 0; i < rt.Len(); i++ {
					if isError(rt.At(i).Type()) {
						c.report(call.Pos(), ruleSwallowedErr, "error result discarded")
						break
					}
				}
			default:
				if isError(t) {
					c.report(call.Pos(), ruleSwallowedErr, "error result discarded")
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				if tuple, ok := info.TypeOf(st.Rhs[0]).(*types.Tuple); ok {
					for i, l := range st.Lhs {
						if isBlank(l) && i < tuple.Len() && isError(tuple.At(i).Type()) {
							c.report(l.Pos(), ruleSwallowedErr, "error assigned to blank identifier")
						}
					}
				}
				return true
			}
			for i, l := range st.Lhs {
				if isBlank(l) && i < len(st.Rhs) && isError(info.TypeOf(st.Rhs[i])) {
					c.report(l.Pos(), ruleSwallowedErr, "error assigned to blank identifier")
				}
			}
		}
		return true
	})
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
