// Package minipytest is test support for the MiniPy front end: the
// scope analysis the resolver replaced, kept as the reference that
// minipy.Resolve's records are checked against after parsing and after
// the OpenMP transform. Only tests import it.
package minipytest

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"github.com/omp4go/omp4go/internal/minipy"
)

// Scope is the reference analysis of one function body.
type Scope struct {
	Locals      []string
	Globals     map[string]bool
	Nonlocals   map[string]bool
	Annotations []minipy.Annotation

	localSet map[string]bool
	skip     minipy.Stmt
}

// IsLocal reports whether name binds locally in this scope.
func (s *Scope) IsLocal(name string) bool { return s.localSet[name] }

// AnalyzeScope computes the Scope of a function body.
func AnalyzeScope(params []minipy.Param, body []minipy.Stmt) *Scope {
	return AnalyzeScopeExcluding(params, body, nil)
}

// AnalyzeScopeExcluding is AnalyzeScope with one statement subtree
// skipped: which names are bound outside a construct.
func AnalyzeScopeExcluding(params []minipy.Param, body []minipy.Stmt, skip minipy.Stmt) *Scope {
	s := &Scope{
		Globals:   make(map[string]bool),
		Nonlocals: make(map[string]bool),
		localSet:  make(map[string]bool),
		skip:      skip,
	}
	for _, p := range params {
		s.addLocal(p.Name)
		s.annotate(p.Name, p.Annotation)
	}
	for _, st := range body {
		s.scanStmt(st)
	}
	return s
}

func (s *Scope) addLocal(name string) {
	if name == "" || s.Globals[name] || s.Nonlocals[name] {
		return
	}
	if !s.localSet[name] {
		s.localSet[name] = true
		s.Locals = append(s.Locals, name)
	}
}

func (s *Scope) annotate(name string, ann minipy.Expr) {
	if ann != nil {
		s.Annotations = append(s.Annotations, minipy.Annotation{Name: name, Type: ann})
	}
}

func (s *Scope) bindTarget(e minipy.Expr) {
	switch t := e.(type) {
	case *minipy.Name:
		s.addLocal(t.ID)
	case *minipy.TupleLit:
		for _, el := range t.Elts {
			s.bindTarget(el)
		}
	case *minipy.ListLit:
		for _, el := range t.Elts {
			s.bindTarget(el)
		}
	}
}

// scanStmt walks statements of this scope only; nested FuncDef and
// Lambda bodies are separate scopes.
func (s *Scope) scanStmt(st minipy.Stmt) {
	if s.skip != nil && st == s.skip {
		return
	}
	switch t := st.(type) {
	case *minipy.FuncDef:
		s.addLocal(t.Name)
	case *minipy.Assign:
		for _, tgt := range t.Targets {
			s.bindTarget(tgt)
		}
	case *minipy.AugAssign:
		s.bindTarget(t.Target)
	case *minipy.AnnAssign:
		s.bindTarget(t.Target)
		if n, ok := t.Target.(*minipy.Name); ok {
			s.annotate(n.ID, t.Annotation)
		}
	case *minipy.For:
		s.bindTarget(t.Target)
		for _, b := range t.Body {
			s.scanStmt(b)
		}
	case *minipy.While:
		for _, b := range t.Body {
			s.scanStmt(b)
		}
	case *minipy.If:
		for _, b := range t.Body {
			s.scanStmt(b)
		}
		for _, b := range t.Else {
			s.scanStmt(b)
		}
	case *minipy.With:
		for _, item := range t.Items {
			if item.Vars != nil {
				s.bindTarget(item.Vars)
			}
		}
		for _, b := range t.Body {
			s.scanStmt(b)
		}
	case *minipy.Try:
		for _, b := range t.Body {
			s.scanStmt(b)
		}
		for _, h := range t.Handlers {
			if h.Name != "" {
				s.addLocal(h.Name)
			}
			for _, b := range h.Body {
				s.scanStmt(b)
			}
		}
		for _, b := range t.Final {
			s.scanStmt(b)
		}
	case *minipy.Global:
		for _, n := range t.Names {
			s.Globals[n] = true
			delete(s.localSet, n)
		}
	case *minipy.Nonlocal:
		for _, n := range t.Names {
			s.Nonlocals[n] = true
			delete(s.localSet, n)
		}
	case *minipy.Import:
		for _, a := range t.Names {
			name := a.AsName
			if name == "" {
				name = a.Name
				for i := 0; i < len(name); i++ {
					if name[i] == '.' {
						name = name[:i]
						break
					}
				}
			}
			s.addLocal(name)
		}
	case *minipy.FromImport:
		for _, a := range t.Names {
			if a.AsName != "" {
				s.addLocal(a.AsName)
			} else {
				s.addLocal(a.Name)
			}
		}
	}
}

// NestedReferences over-approximates the set of names referenced by
// nested functions/lambdas anywhere in body: every name mentioned inside
// one, at any depth. Decorators and defaults evaluate in the enclosing
// scope and count only for what is nested inside them.
func NestedReferences(body []minipy.Stmt) map[string]bool {
	out := make(map[string]bool)
	for _, s := range body {
		minipy.Inspect(s, func(n minipy.Node) bool {
			switch t := n.(type) {
			case *minipy.FuncDef:
				for _, b := range t.Body {
					minipy.Names(b, out)
				}
			case *minipy.Lambda:
				minipy.Names(t.Body, out)
			}
			return true
		})
	}
	return out
}

// CheckScopes reports the first function or lambda under node whose
// record differs from the reference analysis of its current body, or a
// missing record.
func CheckScopes(node minipy.Node) error {
	var err error
	minipy.Inspect(node, func(n minipy.Node) bool {
		if err != nil {
			return false
		}
		switch t := n.(type) {
		case *minipy.FuncDef:
			err = checkScope(t.Name, t.Scope, t.Params, t.Body)
		case *minipy.Lambda:
			err = checkScope("<lambda>", t.Scope, t.Params, []minipy.Stmt{&minipy.Return{Value: t.Body}})
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", n.NodePos(), err)
		}
		return true
	})
	return err
}

func checkScope(name string, got *minipy.ScopeInfo, params []minipy.Param, body []minipy.Stmt) error {
	if got == nil {
		return fmt.Errorf("%s has no scope record", name)
	}
	want := AnalyzeScope(params, body)
	switch {
	case !slices.Equal(got.Locals, want.Locals):
		return fmt.Errorf("%s: locals %v, want %v", name, got.Locals, want.Locals)
	case !sameSet(got.Globals, want.Globals):
		return fmt.Errorf("%s: globals %v, want %v", name, got.Globals, want.Globals)
	case !sameSet(got.Nonlocals, want.Nonlocals):
		return fmt.Errorf("%s: nonlocals %v, want %v", name, got.Nonlocals, want.Nonlocals)
	case !slices.Equal(got.Annotations, want.Annotations):
		return fmt.Errorf("%s: annotations %v, want %v", name, got.Annotations, want.Annotations)
	}
	if nested := NestedReferences(body); !sameSet(got.Nested, nested) {
		return fmt.Errorf("%s: nested references %v, want %v", name, sorted(got.Nested), sorted(nested))
	}
	names := namesOf(params, body)
	for _, n := range want.Locals {
		names[n] = true
	}
	for _, n := range sorted(names) {
		if got.IsLocal(n) != want.IsLocal(n) {
			return fmt.Errorf("%s: IsLocal(%s) = %v, want %v", name, n, got.IsLocal(n), want.IsLocal(n))
		}
	}
	return nil
}

// CheckBoundOutside reports the first construct under node, a with
// statement binding no "as" target, whose bound-outside answer (from the
// record of the function holding it and a walk of its block) differs
// from AnalyzeScopeExcluding for a name of that function. A name
// declared global or nonlocal inside the block is left out: the record
// treats the declaration as the function's, as Python does, where the
// reference would skip it with the block.
func CheckBoundOutside(node minipy.Node) error {
	var err error
	minipy.Inspect(node, func(n minipy.Node) bool {
		fd, ok := n.(*minipy.FuncDef)
		if !ok || err != nil {
			return err == nil
		}
		names := namesOf(fd.Params, fd.Body)
		for _, w := range ownWiths(fd.Body) {
			bound := fd.Scope.BoundOutside(w.Body)
			want := AnalyzeScopeExcluding(fd.Params, fd.Body, w)
			declared := AnalyzeScope(nil, w.Body)
			for _, name := range sorted(names) {
				if declared.Globals[name] || declared.Nonlocals[name] {
					continue
				}
				if bound(name) != want.IsLocal(name) {
					err = fmt.Errorf("%s: %s bound outside the with at %s: %v, want %v",
						fd.Name, name, w.NodePos(), bound(name), want.IsLocal(name))
					return false
				}
			}
		}
		return true
	})
	return err
}

// ownWiths lists the with statements without an "as" target of a
// function body, nested functions' bodies excluded.
func ownWiths(body []minipy.Stmt) []*minipy.With {
	var out []*minipy.With
	for _, s := range body {
		minipy.Inspect(s, func(n minipy.Node) bool {
			switch t := n.(type) {
			case *minipy.With:
				if !slices.ContainsFunc(t.Items, func(it minipy.WithItem) bool { return it.Vars != nil }) {
					out = append(out, t)
				}
			case *minipy.FuncDef, *minipy.Lambda:
				return false
			}
			return true
		})
	}
	return out
}

func namesOf(params []minipy.Param, body []minipy.Stmt) map[string]bool {
	names := map[string]bool{}
	for _, p := range params {
		names[p.Name] = true
	}
	for _, s := range body {
		minipy.Names(s, names)
	}
	return names
}

func sameSet(a, b map[string]bool) bool { return maps.Equal(a, b) }

func sorted(m map[string]bool) []string {
	out := slices.Collect(maps.Keys(m))
	sort.Strings(out)
	return out
}
