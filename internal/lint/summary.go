// Interprocedural summaries: the per-package facts the module-wide
// analyzers (lockorder, ctxflow) stitch into whole-module reasoning.
//
// Each function declaration (plus each goroutine body launched inside
// one) is condensed into a FuncSummary: the mutexes it acquires and
// which locks are lexically held at each acquisition, every call it
// makes with the locks held at that call site and how the inbound
// context flows into it, and its channel operations (re-using the Conc
// classification). Summaries are pure data — qualified-name strings
// and serialized positions, no *types.Object pointers — so they export
// as go/analysis-style facts: a PackageSummary round-trips through
// encoding/json byte-identically, which the module meta-test pins.
//
// The held-lock tracking is the same trade every analyzer here makes:
// lexical source order, not a happens-before proof. An Unlock in a
// plain statement releases; an Unlock inside a defer does not (the
// lock stays held for the rest of the body); a func literal starts
// with nothing held (it may run on any goroutine at any time); a `go`
// launch is summarized separately so a spawned body's acquisitions are
// never attributed to the launching lock context.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// FuncID names a function or method across the module:
// "pkgpath.Func", "pkgpath.(Type).Method" (pointer receivers
// normalized), or "parent#goN" for the Nth goroutine body launched
// inside parent.
type FuncID string

// LockID names a mutex across the module: "pkgpath.Type.field" for a
// struct field, "pkgpath.var" for a package-level mutex. Local mutex
// variables are deliberately unnamed (and untracked): a lock that
// never escapes a stack frame cannot participate in a cross-goroutine
// ordering.
type LockID string

// IfaceMethodID names an interface method, "pkgpath.Iface.Method".
type IfaceMethodID string

// LockAcq is one mutex acquisition.
type LockAcq struct {
	Lock  LockID   `json:"lock"`
	Pos   string   `json:"pos"`
	RLock bool     `json:"rlock,omitempty"`
	Held  []LockID `json:"held,omitempty"` // locks lexically held when this one is taken
}

// CallSite is one call made by the summarized function.
type CallSite struct {
	Pos    string        `json:"pos"`
	Name   string        `json:"name"`             // method/function name
	Callee FuncID        `json:"callee,omitempty"` // statically-resolved callee ("" when dynamic)
	Iface  IfaceMethodID `json:"iface,omitempty"`  // set when the call goes through a named in-module interface
	Held   []LockID      `json:"held,omitempty"`   // locks lexically held at the call
	// CtxForwarded: an argument derives from the enclosing function's
	// inbound context parameter. CtxFresh: an argument is a direct
	// context.Background()/context.TODO() result.
	CtxForwarded bool `json:"ctx_forwarded,omitempty"`
	CtxFresh     bool `json:"ctx_fresh,omitempty"`
	// CalleeTakesCtx: the callee's signature accepts a context.Context.
	CalleeTakesCtx bool `json:"callee_takes_ctx,omitempty"`
	// Blocking: the method name is in the potentially-indefinite I/O set
	// (Call, Read, Accept, ...) and the call goes through an interface.
	Blocking bool `json:"blocking,omitempty"`
	// Deferred/Async: the call runs at function exit (defer) or on a
	// fresh goroutine (go) — excluded from held-lock edge propagation.
	Deferred bool `json:"deferred,omitempty"`
	Async    bool `json:"async,omitempty"`
}

// ChanOpFact is one channel operation, serialized from the Conc layer.
type ChanOpFact struct {
	Kind     string `json:"kind"` // send, receive, close, range
	Pos      string `json:"pos"`
	Chan     string `json:"chan,omitempty"` // the channel object's name, when resolvable
	Blocking bool   `json:"blocking,omitempty"`
}

// FuncSummary is the exported interprocedural fact set for one
// function, method, or launched goroutine body.
type FuncSummary struct {
	ID  FuncID `json:"id"`
	Pos string `json:"pos"`
	// HasCtxParam: the signature accepts a context.Context.
	HasCtxParam bool `json:"has_ctx_param,omitempty"`
	// DeadlineRecv: the receiver struct carries a time.Duration
	// Timeout/Deadline field — the type owns an inbound deadline even
	// without a context parameter.
	DeadlineRecv bool `json:"deadline_recv,omitempty"`
	// CtxParamDiscarded: the function has a context parameter that no
	// call site forwards (and the body makes at least one call).
	CtxParamDiscarded bool `json:"ctx_param_discarded,omitempty"`
	// SetsDeadline: the body calls a Set*Deadline*/Set*Timeout* knob
	// itself, bounding its blocking I/O locally.
	SetsDeadline bool `json:"sets_deadline,omitempty"`

	Acquires []LockAcq    `json:"acquires,omitempty"`
	Calls    []CallSite   `json:"calls,omitempty"`
	ChanOps  []ChanOpFact `json:"chan_ops,omitempty"`
}

// PackageSummary is the fact set for one package, funcs sorted by ID.
type PackageSummary struct {
	Path  string         `json:"path"`
	Funcs []*FuncSummary `json:"funcs"`
}

// Func returns the summary with the given ID, nil when absent.
func (ps *PackageSummary) Func(id FuncID) *FuncSummary {
	i := sort.Search(len(ps.Funcs), func(i int) bool { return ps.Funcs[i].ID >= id })
	if i < len(ps.Funcs) && ps.Funcs[i].ID == id {
		return ps.Funcs[i]
	}
	return nil
}

// blockingCallNames mirrors deadlinecheck's view of potentially
// indefinite blocking I/O method names.
var blockingCallNames = map[string]bool{
	"Call": true,
	"Read": true, "Write": true,
	"Send": true, "Recv": true, "Receive": true,
	"Accept": true, "Wait": true,
	"Query": true, "Exec": true, "Fetch": true,
}

// Summarize extracts the interprocedural facts for one loaded package.
func Summarize(pkg *Package) *PackageSummary {
	ex := &extractor{pkg: pkg}
	ps := &PackageSummary{Path: pkg.Types.Path()}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ps.Funcs = append(ps.Funcs, ex.summarize(fn, fd)...)
		}
	}
	sort.Slice(ps.Funcs, func(i, j int) bool { return ps.Funcs[i].ID < ps.Funcs[j].ID })
	return ps
}

type extractor struct {
	pkg *Package
}

func (ex *extractor) pos(p token.Pos) string {
	return ex.pkg.Fset.Position(p).String()
}

// FuncIDOf builds the module-wide ID for a function object.
func FuncIDOf(fn *types.Func) FuncID {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return FuncID(fmt.Sprintf("%s.(%s).%s", pkgPath, named.Obj().Name(), fn.Name()))
		}
	}
	return FuncID(pkgPath + "." + fn.Name())
}

// summarize condenses one declaration, returning its summary plus one
// synthetic summary per goroutine body launched inside it.
func (ex *extractor) summarize(fn *types.Func, fd *ast.FuncDecl) []*FuncSummary {
	root := &FuncSummary{
		ID:           FuncIDOf(fn),
		Pos:          ex.pos(fd.Pos()),
		HasCtxParam:  signatureTakesCtx(fn),
		DeadlineRecv: receiverCarriesDeadline(fn),
	}
	ctxParams := ex.ctxParamObjs(fd)
	goBodies := ex.walkBody(root, fd.Body, ctxParams)
	out := []*FuncSummary{root}
	n := 0
	for len(goBodies) > 0 {
		body := goBodies[0]
		goBodies = goBodies[1:]
		n++
		sub := &FuncSummary{
			ID:  FuncID(fmt.Sprintf("%s#go%d", root.ID, n)),
			Pos: ex.pos(body.Pos()),
		}
		// A launched goroutine still sees the enclosing ctx params
		// (captured), so forwarding classification carries over.
		goBodies = append(goBodies, ex.walkBody(sub, body, ctxParams)...)
		out = append(out, sub)
	}
	if root.HasCtxParam && len(root.Calls) > 0 {
		forwarded := false
		for i := range root.Calls {
			if root.Calls[i].CtxForwarded {
				forwarded = true
				break
			}
		}
		root.CtxParamDiscarded = !forwarded
	}
	return out
}

// ctxParamObjs returns the declaration's context.Context-typed
// parameter objects.
func (ex *extractor) ctxParamObjs(fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := ex.pkg.Info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

// walkBody records acquisitions, calls, and channel ops in source
// order with lexical held-lock tracking, and returns the bodies of
// `go` statements for separate summarization.
func (ex *extractor) walkBody(sum *FuncSummary, body ast.Node, ctxParams map[types.Object]bool) []*ast.BlockStmt {
	var held []LockID
	var goBodies []*ast.BlockStmt
	holdIdx := func(id LockID) int {
		for i, h := range held {
			if h == id {
				return i
			}
		}
		return -1
	}

	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// `go expr()`: arguments and the callee expression are
				// evaluated synchronously, but the launched body is not.
				if lock, _, _ := ex.classifyLockCall(n.Call); lock == "" {
					ex.recordCall(sum, n.Call, held, ctxParams, deferred, true)
				}
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					goBodies = append(goBodies, lit.Body)
				}
				for _, arg := range n.Call.Args {
					walk(arg, deferred)
				}
				return false
			case *ast.DeferStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					// Deferred closures run at exit; locks held here may be
					// gone by then, so their content runs with nothing held.
					saved := held
					held = nil
					walk(lit.Body, false)
					held = saved
				} else if lock, _, _ := ex.classifyLockCall(n.Call); lock == "" {
					// `defer mu.Unlock()` is the release idiom, not a call
					// site; everything else deferred is a real call that
					// runs at exit with an unknowable lock context.
					ex.recordCall(sum, n.Call, nil, ctxParams, true, false)
				}
				for _, arg := range n.Call.Args {
					walk(arg, deferred)
				}
				return false
			case *ast.FuncLit:
				// A bare literal may be invoked synchronously (a fill
				// callback) or stashed for another goroutine; either way
				// nothing proves the current locks are held when it runs.
				saved := held
				held = nil
				walk(n.Body, false)
				held = saved
				return false
			case *ast.CallExpr:
				if lock, isAcquire, isRLock := ex.classifyLockCall(n); lock != "" {
					if isAcquire {
						if deferred {
							// A deferred Lock is pathological; ignore.
							return true
						}
						sum.Acquires = append(sum.Acquires, LockAcq{
							Lock:  lock,
							Pos:   ex.pos(n.Pos()),
							RLock: isRLock,
							Held:  append([]LockID(nil), held...),
						})
						if holdIdx(lock) < 0 {
							held = append(held, lock)
						}
					} else if !deferred {
						// Unlock in plain flow releases; inside a defer it
						// keeps the lock held for the rest of the body.
						if i := holdIdx(lock); i >= 0 {
							held = append(held[:i], held[i+1:]...)
						}
					}
					return true
				}
				ex.recordCall(sum, n, held, ctxParams, deferred, false)
				return true
			case *ast.SendStmt:
				sum.ChanOps = append(sum.ChanOps, ex.chanFact("send", n.Pos(), n.Chan, true))
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					sum.ChanOps = append(sum.ChanOps, ex.chanFact("receive", n.Pos(), n.X, true))
				}
			case *ast.RangeStmt:
				if t := ex.pkg.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						sum.ChanOps = append(sum.ChanOps, ex.chanFact("range", n.Pos(), n.X, true))
					}
				}
			}
			return true
		})
	}
	if b, ok := body.(*ast.BlockStmt); ok {
		walk(b, false)
	} else {
		walk(body, false)
	}
	return goBodies
}

func (ex *extractor) chanFact(kind string, pos token.Pos, ch ast.Expr, blocking bool) ChanOpFact {
	fact := ChanOpFact{Kind: kind, Pos: ex.pos(pos), Blocking: blocking}
	if obj := referentIn(ex.pkg.Info, ch); obj != nil {
		fact.Chan = obj.Name()
	}
	return fact
}

// classifyLockCall recognizes sync.Mutex / sync.RWMutex Lock / RLock /
// Unlock / RUnlock calls (including through an embedded mutex) and
// resolves the lock's module-wide identity. Returns ("", _, _) for
// every other call.
func (ex *extractor) classifyLockCall(call *ast.CallExpr) (lock LockID, acquire, rlock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := ex.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false, false
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
		rlock = fn.Name() == "RLock"
	case "Unlock", "RUnlock":
	case "TryLock", "TryRLock":
		// A failed TryLock does not block; treat success as an acquire
		// for edge purposes (it still establishes ordering when held).
		acquire = true
		rlock = fn.Name() == "TryRLock"
	default:
		return "", false, false
	}
	id := ex.lockIdent(sel)
	if id == "" {
		return "", false, false
	}
	return id, acquire, rlock
}

// lockIdent resolves the receiver of a mutex method call to a stable
// module-wide lock identity. sel is the `x.mu.Lock` selector; the
// selection's index path names the mutex field even when it is
// embedded (s.Lock() on a struct embedding sync.Mutex).
func (ex *extractor) lockIdent(sel *ast.SelectorExpr) LockID {
	// Direct package-level mutex: mu.Lock() with mu a package var.
	if s := ex.pkg.Info.Selections[sel]; s != nil {
		t := s.Recv()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			obj := named.Obj()
			if obj.Name() == "Mutex" || obj.Name() == "RWMutex" {
				if obj.Pkg().Path() == "sync" {
					// Receiver is the mutex itself: resolve x in x.Lock().
					return ex.lockOwner(sel.X)
				}
			} else {
				// s.Lock() through an embedded mutex: identity is the
				// owning named type's embedded field.
				st, ok := named.Underlying().(*types.Struct)
				if ok && len(s.Index()) > 0 {
					idx := s.Index()[0]
					if idx < st.NumFields() {
						f := st.Field(idx)
						if isMutexType(f.Type()) {
							return LockID(fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), obj.Name(), f.Name()))
						}
					}
				}
			}
		}
	}
	return ex.lockOwner(sel.X)
}

// lockOwner resolves a mutex-valued expression (s.mu, pkg.mu, mu) to
// its identity: owning-struct field or package-level variable. Local
// variables return "".
func (ex *extractor) lockOwner(e ast.Expr) LockID {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s := ex.pkg.Info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			field, _ := s.Obj().(*types.Var)
			if field == nil || field.Pkg() == nil {
				return ""
			}
			t := s.Recv()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return LockID(fmt.Sprintf("%s.%s.%s", field.Pkg().Path(), named.Obj().Name(), field.Name()))
			}
			return LockID(field.Pkg().Path() + "." + field.Name())
		}
		// Package-qualified variable: pkg.Mu.
		if obj, ok := ex.pkg.Info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil && isPkgLevel(obj) {
			return LockID(obj.Pkg().Path() + "." + obj.Name())
		}
	case *ast.Ident:
		if obj, ok := ex.pkg.Info.Uses[e].(*types.Var); ok && obj.Pkg() != nil && isPkgLevel(obj) {
			return LockID(obj.Pkg().Path() + "." + obj.Name())
		}
	}
	return ""
}

// isPkgLevel reports whether v is declared at package scope.
func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// recordCall appends a CallSite for call (which is known not to be a
// mutex operation).
func (ex *extractor) recordCall(sum *FuncSummary, call *ast.CallExpr, held []LockID, ctxParams map[types.Object]bool, deferred, async bool) {
	cs := CallSite{
		Pos:      ex.pos(call.Pos()),
		Held:     append([]LockID(nil), held...),
		Deferred: deferred,
		Async:    async,
	}
	var calleeFn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		cs.Name = fun.Name
		calleeFn, _ = ex.pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		cs.Name = fun.Sel.Name
		if strings.HasPrefix(cs.Name, "Set") && (strings.Contains(cs.Name, "Deadline") || strings.Contains(cs.Name, "Timeout")) {
			sum.SetsDeadline = true
		}
		calleeFn, _ = ex.pkg.Info.Uses[fun.Sel].(*types.Func)
		if s := ex.pkg.Info.Selections[fun]; s != nil && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			if named, ok := derefNamed(s.Recv()); ok && named.Obj().Pkg() != nil {
				cs.Iface = IfaceMethodID(fmt.Sprintf("%s.%s.%s", named.Obj().Pkg().Path(), named.Obj().Name(), fun.Sel.Name))
			}
			cs.Blocking = blockingCallNames[cs.Name]
		}
	default:
		// Dynamic call (function value, conversion result): record the
		// site with no callee so held-lock facts still exist.
	}
	if calleeFn != nil {
		// Interface method objects resolve to the interface's method;
		// only record a concrete callee for statically-dispatched calls.
		if cs.Iface == "" {
			cs.Callee = FuncIDOf(calleeFn)
		}
		cs.CalleeTakesCtx = signatureTakesCtx(calleeFn)
	}
	for _, arg := range call.Args {
		t := ex.pkg.Info.TypeOf(arg)
		if t == nil || !isContextType(t) {
			continue
		}
		if isFreshContextExpr(ex.pkg.Info, arg) {
			cs.CtxFresh = true
			continue
		}
		if obj := referentIn(ex.pkg.Info, arg); obj != nil && ctxParams[obj] {
			cs.CtxForwarded = true
			continue
		}
		// Any other context value (derived local, field) counts as a
		// forward when the function has inbound ctx params at all —
		// ctx2, cancel := context.WithTimeout(ctx, ...) is the idiom.
		if len(ctxParams) > 0 {
			cs.CtxForwarded = true
		}
	}
	sum.Calls = append(sum.Calls, cs)
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// isFreshContextExpr reports whether e is a direct
// context.Background() or context.TODO() call.
func isFreshContextExpr(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// SignatureTakesCtx reports whether fn accepts a context.Context
// parameter. Exported for analyzers (ctxflow) that rule on it at the
// AST level, outside the summary extractor.
func SignatureTakesCtx(fn *types.Func) bool { return signatureTakesCtx(fn) }

// signatureTakesCtx reports whether fn accepts a context.Context.
func signatureTakesCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// receiverCarriesDeadline reports whether fn is a method whose
// receiver struct has a time.Duration Timeout/Deadline field.
func receiverCarriesDeadline(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name := strings.ToLower(f.Name())
		if !strings.Contains(name, "timeout") && !strings.Contains(name, "deadline") {
			continue
		}
		if named, ok := f.Type().(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Duration" {
				return true
			}
		}
	}
	return false
}

// referentIn is Pass.Referent without the Pass: resolve an expression
// to the variable-like object it denotes.
func referentIn(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		if obj := info.Uses[e.Sel]; obj != nil {
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
		}
	}
	return nil
}

// ParsePos splits a serialized "file:line:col" position back into a
// token.Position (column optional).
func ParsePos(s string) token.Position {
	var p token.Position
	// Split from the right: the filename may contain colons on other
	// platforms, line and column never do.
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		p.Filename = s
		return p
	}
	last, rest := s[i+1:], s[:i]
	j := strings.LastIndexByte(rest, ':')
	if j < 0 {
		p.Filename = rest
		p.Line, _ = strconv.Atoi(last)
		return p
	}
	if line, err := strconv.Atoi(rest[j+1:]); err == nil {
		p.Filename = rest[:j]
		p.Line = line
		p.Column, _ = strconv.Atoi(last)
	} else {
		p.Filename = rest
		p.Line, _ = strconv.Atoi(last)
	}
	return p
}
