package minipy

import (
	"cmp"
	"maps"
	"slices"
	"strings"
)

// ScopeInfo is the scope record of one function or lambda: how the names
// of its body bind under Python's rules (a name bound anywhere in the
// function is local unless declared global or nonlocal) and which names
// the functions nested in it refer to. Parse resolves every def and
// lambda, a pass resolves each function it creates or rewrites, and the
// later stages only read the record. Once the tree is final the records
// are read-only, shared by every interpreter that runs the module.
type ScopeInfo struct {
	// Locals are names bound in this scope (parameters, assignment
	// targets, loop variables, def names, with/except aliases), in
	// first-appearance order.
	Locals []string
	// Globals and Nonlocals are the names declared so (nil when none).
	Globals, Nonlocals map[string]bool
	// Annotations are the annotations this scope gives its names, by a
	// parameter or an "x: T [= e]" statement, in source order.
	Annotations []Annotation
	// Bindings counts the binding sites of each local among the
	// parameters and the scope's own statements (the bodies of nested
	// functions and lambdas are scopes of their own). A name declared
	// global or nonlocal has none.
	Bindings map[string]int
	// Nested holds every name referenced in the body of a function or a
	// lambda nested in this scope, at any depth (nil when nothing is
	// nested). A local named here may be shared with a closure.
	Nested map[string]bool

	refs map[string]bool // every name referenced in the body, nested bodies included
}

// Annotation is one annotation of a name.
type Annotation struct {
	Name string
	Type Expr
}

// IsLocal reports whether name binds locally in this scope.
func (s *ScopeInfo) IsLocal(name string) bool { return s.Bindings[name] > 0 }

// BoundOutside returns the predicate "name binds in this scope at a site
// outside block", for block a statement list of the scope's own body: a
// local with more binding sites in the scope than in the block. Only the
// block is walked.
func (s *ScopeInfo) BoundOutside(block []Stmt) func(name string) bool {
	r := newResolver(nil, false, false)
	inspectAll(block, r.visit)
	inside := r.s.Bindings
	return func(name string) bool { return s.Bindings[name] > inside[name] }
}

// Declare records declarations a pass has put at the top of the body:
// the names stop being locals, as a new resolve of the body would find.
func (s *ScopeInfo) Declare(globals, nonlocals []string) {
	for _, name := range globals {
		s.declare(&s.Globals, name)
	}
	for _, name := range nonlocals {
		s.declare(&s.Nonlocals, name)
	}
	s.Locals = slices.DeleteFunc(s.Locals, func(name string) bool { return s.Globals[name] || s.Nonlocals[name] })
}

func (s *ScopeInfo) declare(set *map[string]bool, name string) {
	if *set == nil {
		*set = make(map[string]bool)
	}
	(*set)[name] = true
	delete(s.Bindings, name)
}

func (s *ScopeInfo) bind(name string) {
	if name == "" || s.Globals[name] || s.Nonlocals[name] {
		return
	}
	if s.Bindings[name] == 0 {
		s.Locals = append(s.Locals, name)
	}
	s.Bindings[name]++
}

func (s *ScopeInfo) bindTarget(e Expr) {
	switch t := e.(type) {
	case *Name:
		s.bind(t.ID)
	case *TupleLit:
		for _, el := range t.Elts {
			s.bindTarget(el)
		}
	case *ListLit:
		for _, el := range t.Elts {
			s.bindTarget(el)
		}
		// Attribute/Index targets do not bind names.
	}
}

// Resolve computes the record of fd, and that of each function and
// lambda nested in fd that has none. A pass that changes a body in place
// clears the records of the functions and lambdas it changed before it
// resolves the function around them.
//
// It is one bottom-up walk: a nested function's names reach its parent
// from the nested record, so no body is walked once per depth. A def at
// module level has no parent, so its record keeps no names for one; a
// def resolved again keeps that choice, and a new def is taken as
// nested.
func Resolve(fd *FuncDef) {
	resolveFunc(fd, fd.Scope == nil || fd.Scope.refs != nil, true)
}

// resolveIn resolves the functions and lambdas under n, which is not in
// any function; lambdas says whether n may hold one.
func resolveIn(n Node, lambdas bool) {
	r := &resolver{exprs: lambdas}
	r.visit = r.node
	Inspect(n, r.visit)
}

// resolver walks the statements of one scope; s is nil outside any
// function, where only nested scopes are resolved. It walks expressions
// only to collect the names a parent needs (s.refs) or to find lambdas.
type resolver struct {
	s      *ScopeInfo
	exprs  bool
	shared bool // s.Nested is a nested scope's names, not yet copied
	visit  func(Node) bool
}

// newResolver starts a scope with its parameters; names says whether
// it collects the names its parent needs.
func newResolver(params []Param, names, exprs bool) *resolver {
	r := &resolver{s: &ScopeInfo{Bindings: make(map[string]int)}, exprs: exprs || names}
	if names {
		r.s.refs = make(map[string]bool)
	}
	r.visit = r.node
	for _, p := range params {
		r.s.bind(p.Name)
		r.s.annotate(p.Name, p.Annotation)
	}
	return r
}

func resolveFunc(fd *FuncDef, names, exprs bool) {
	r := newResolver(fd.Params, names, exprs)
	inspectAll(fd.Body, r.visit)
	fd.Scope = r.s
}

// resolveLambda resolves a lambda. It keeps its names: the scope around
// it needs them, and at module level they cost no more than the walk.
func resolveLambda(l *Lambda) {
	r := newResolver(l.Params, true, true)
	Inspect(l.Body, r.visit)
	l.Scope = r.s
}

func (s *ScopeInfo) annotate(name string, ann Expr) {
	if ann != nil {
		s.Annotations = append(s.Annotations, Annotation{name, ann})
	}
}

// node visits one node of the scope's body. Statements bind; a nested
// function binds its name, and its decorators, parameter annotations
// and defaults belong to this scope, but its body is a scope of its own,
// resolved once and merged into this one by its record.
func (r *resolver) node(n Node) bool {
	if !r.exprs {
		if _, ok := n.(Expr); ok {
			return false
		}
	}
	s := r.s
	switch t := n.(type) {
	case *Name:
		if s != nil && s.refs != nil {
			s.refs[t.ID] = true
		}
		return true
	case *FuncDef:
		if s != nil {
			s.bind(t.Name)
		}
		inspectAll(t.Decorators, r.visit)
		inspectParams(t.Params, r.visit)
		Inspect(t.Returns, r.visit)
		if t.Scope == nil {
			resolveFunc(t, s != nil, r.exprs)
		}
		r.nest(t.Scope)
		return false
	case *Lambda:
		inspectParams(t.Params, r.visit)
		if t.Scope == nil {
			resolveLambda(t)
		}
		r.nest(t.Scope)
		return false
	}
	if s == nil {
		return true
	}
	switch t := n.(type) {
	case *Assign:
		for _, tgt := range t.Targets {
			s.bindTarget(tgt)
		}
	case *AugAssign:
		s.bindTarget(t.Target)
	case *AnnAssign:
		s.bindTarget(t.Target)
		if n, ok := t.Target.(*Name); ok {
			s.annotate(n.ID, t.Annotation)
		}
	case *For:
		s.bindTarget(t.Target)
	case *With:
		for _, item := range t.Items {
			if item.Vars != nil {
				s.bindTarget(item.Vars)
			}
		}
	case *Try:
		// A handler's name binds after the try body's names.
		inspectAll(t.Body, r.visit)
		for _, h := range t.Handlers {
			s.bind(h.Name)
			Inspect(h.Type, r.visit)
			inspectAll(h.Body, r.visit)
		}
		inspectAll(t.Final, r.visit)
		return false
	case *Global:
		for _, name := range t.Names {
			s.declare(&s.Globals, name)
		}
	case *Nonlocal:
		for _, name := range t.Names {
			s.declare(&s.Nonlocals, name)
		}
	case *Import:
		for _, a := range t.Names {
			first, _, _ := strings.Cut(a.Name, ".") // "import a.b" binds "a"
			s.bind(cmp.Or(a.AsName, first))
		}
	case *FromImport:
		for _, a := range t.Names {
			s.bind(cmp.Or(a.AsName, a.Name))
		}
	}
	return true
}

// nest merges the names a nested scope refers to into this one. The
// first nested scope's names become Nested as they are: records are
// read-only once resolved, and a second nested scope copies them.
func (r *resolver) nest(child *ScopeInfo) {
	s := r.s
	if s == nil {
		return
	}
	switch {
	case s.Nested == nil:
		s.Nested, r.shared = child.refs, true
	case r.shared:
		s.Nested, r.shared = maps.Clone(s.Nested), false
		fallthrough
	default:
		maps.Copy(s.Nested, child.refs)
	}
	if s.refs != nil {
		maps.Copy(s.refs, child.refs)
	}
}
