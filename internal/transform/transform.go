// Package transform implements OMP4Py's source-to-source pass: the
// work the @omp decorator performs at module load time (§III-A).
// Functions decorated with @omp have their `with omp("...")` blocks
// and standalone omp("...") calls parsed, validated, and rewritten
// into calls to the __omp runtime module, reproducing the generated
// code shapes of Figs. 2 and 3; the decorator and the directives are
// then removed from the AST.
package transform

import (
	"fmt"
	"strconv"

	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/minipy"
)

// FuncOptions are the per-function options accepted by the @omp
// decorator (§III-F). The transformation itself is identical across
// modes; Compile marks the function for the closure compiler.
type FuncOptions struct {
	Compile bool
	Dump    bool
	Debug   bool
}

// Result reports what the pass did.
type Result struct {
	// Functions lists the decorated functions that were transformed,
	// in source order.
	Functions []string
	// Compile records functions that requested @omp(compile=True).
	Compile map[string]bool
	// Dumps holds the unparsed transformed source of functions that
	// requested @omp(dump=True).
	Dumps map[string]string
}

// Module transforms every @omp-decorated function in mod, in place.
func Module(mod *minipy.Module) (*Result, error) {
	res := &Result{Compile: make(map[string]bool), Dumps: make(map[string]string)}
	tr := &transformer{res: res}
	if err := tr.stmts(mod.Body, nil); err != nil {
		return nil, err
	}
	return res, nil
}

type transformer struct {
	res    *Result
	gensym int
}

func (tr *transformer) fresh(stem string) string {
	tr.gensym++
	return fmt.Sprintf("__omp_%s_%d", stem, tr.gensym)
}

func errAt(pos minipy.Position, format string, args ...any) error {
	return &minipy.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// stmts walks a statement list looking for decorated functions.
// enclosing is the scope info of the function containing these
// statements (nil at module level).
func (tr *transformer) stmts(body []minipy.Stmt, enclosing *minipy.ScopeInfo) error {
	for _, s := range body {
		if err := tr.stmt(s, enclosing); err != nil {
			return err
		}
	}
	return nil
}

func (tr *transformer) stmt(s minipy.Stmt, enclosing *minipy.ScopeInfo) error {
	switch t := s.(type) {
	case *minipy.FuncDef:
		opts, decorated, rest := ompDecorator(t.Decorators)
		if decorated {
			if err := tr.transformFunction(t, opts); err != nil {
				return err
			}
			t.Decorators = rest // strip @omp, keep any others
			if opts.Compile {
				tr.res.Compile[t.Name] = true
			}
			tr.res.Functions = append(tr.res.Functions, t.Name)
			if opts.Dump {
				tr.res.Dumps[t.Name] = minipy.Unparse(t)
			}
			return nil
		}
		// Non-decorated functions may still contain decorated inner
		// functions.
		scope := minipy.AnalyzeScope(t.Params, t.Body)
		return tr.stmts(t.Body, scope)
	case *minipy.If:
		if err := tr.stmts(t.Body, enclosing); err != nil {
			return err
		}
		return tr.stmts(t.Else, enclosing)
	case *minipy.While:
		return tr.stmts(t.Body, enclosing)
	case *minipy.For:
		return tr.stmts(t.Body, enclosing)
	case *minipy.With:
		return tr.stmts(t.Body, enclosing)
	case *minipy.Try:
		if err := tr.stmts(t.Body, enclosing); err != nil {
			return err
		}
		for _, h := range t.Handlers {
			if err := tr.stmts(h.Body, enclosing); err != nil {
				return err
			}
		}
		return tr.stmts(t.Final, enclosing)
	}
	return nil
}

// ompDecorator recognizes @omp and @omp(...) decorators and parses
// their options; it returns the remaining decorators.
func ompDecorator(decorators []minipy.Expr) (FuncOptions, bool, []minipy.Expr) {
	var opts FuncOptions
	var rest []minipy.Expr
	found := false
	for _, d := range decorators {
		switch t := d.(type) {
		case *minipy.Name:
			if t.ID == "omp" {
				found = true
				continue
			}
		case *minipy.Call:
			if name, ok := t.Fn.(*minipy.Name); ok && name.ID == "omp" {
				found = true
				for _, kw := range t.Keywords {
					truthy := false
					if b, ok := kw.Value.(*minipy.BoolLit); ok {
						truthy = b.V
					}
					switch kw.Name {
					case "compile":
						opts.Compile = truthy
					case "dump":
						opts.Dump = truthy
					case "debug":
						opts.Debug = truthy
					case "cache", "force", "options":
						// Accepted for interface compatibility; the Go
						// pipeline recompiles per run, so caching
						// options have no effect.
					}
				}
				continue
			}
		}
		rest = append(rest, d)
	}
	return opts, found, rest
}

// fnCtx carries per-function transformation state.
type fnCtx struct {
	fd    *minipy.FuncDef
	scope *minipy.ScopeInfo // scope of the function being transformed
	// threadprivate names declared in this function.
	threadprivate map[string]bool
	// loopVar is the active ordered-loop variable, when inside a
	// loop with the ordered clause.
	loopVar string
}

func (tr *transformer) transformFunction(fd *minipy.FuncDef, opts FuncOptions) error {
	ctx := &fnCtx{
		fd:            fd,
		scope:         minipy.AnalyzeScope(fd.Params, fd.Body),
		threadprivate: make(map[string]bool),
	}
	body, err := tr.block(ctx, fd.Body)
	if err != nil {
		return err
	}
	fd.Body = body
	return nil
}

// block transforms a statement list, expanding directives.
func (tr *transformer) block(ctx *fnCtx, body []minipy.Stmt) ([]minipy.Stmt, error) {
	var out []minipy.Stmt
	for _, s := range body {
		repl, err := tr.oneStmt(ctx, s)
		if err != nil {
			return nil, err
		}
		out = append(out, repl...)
	}
	if len(out) == 0 {
		out = []minipy.Stmt{&minipy.Pass{}}
	}
	return out, nil
}

func (tr *transformer) oneStmt(ctx *fnCtx, s minipy.Stmt) ([]minipy.Stmt, error) {
	switch t := s.(type) {
	case *minipy.With:
		if d, ok := withDirective(t); ok {
			dir, err := directive.Parse(d)
			if err != nil {
				return nil, errAt(t.NodePos(), "%v", err)
			}
			if dir.IsStandalone() {
				return nil, errAt(t.NodePos(),
					"directive %q does not take a block; call omp(%q) as a statement", dir.Name, d)
			}
			return tr.construct(ctx, dir, t)
		}
		// Ordinary with statement: transform its body.
		inner, err := tr.block(ctx, t.Body)
		if err != nil {
			return nil, err
		}
		t.Body = inner
		return []minipy.Stmt{t}, nil
	case *minipy.ExprStmt:
		if d, ok := callDirective(t.X); ok {
			dir, err := directive.Parse(d)
			if err != nil {
				return nil, errAt(t.NodePos(), "%v", err)
			}
			if !dir.IsStandalone() {
				return nil, errAt(t.NodePos(),
					"directive %q requires a structured block: use 'with omp(%q):'", dir.Name, d)
			}
			return tr.standalone(ctx, dir, t.NodePos())
		}
		return []minipy.Stmt{t}, nil
	case *minipy.If:
		var err error
		t.Body, err = tr.block(ctx, t.Body)
		if err != nil {
			return nil, err
		}
		if t.Else != nil {
			t.Else, err = tr.block(ctx, t.Else)
			if err != nil {
				return nil, err
			}
		}
		return []minipy.Stmt{t}, nil
	case *minipy.While:
		var err error
		t.Body, err = tr.block(ctx, t.Body)
		if err != nil {
			return nil, err
		}
		return []minipy.Stmt{t}, nil
	case *minipy.For:
		var err error
		t.Body, err = tr.block(ctx, t.Body)
		if err != nil {
			return nil, err
		}
		return []minipy.Stmt{t}, nil
	case *minipy.Try:
		var err error
		t.Body, err = tr.block(ctx, t.Body)
		if err != nil {
			return nil, err
		}
		for i := range t.Handlers {
			t.Handlers[i].Body, err = tr.block(ctx, t.Handlers[i].Body)
			if err != nil {
				return nil, err
			}
		}
		if t.Final != nil {
			t.Final, err = tr.block(ctx, t.Final)
			if err != nil {
				return nil, err
			}
		}
		return []minipy.Stmt{t}, nil
	case *minipy.FuncDef:
		// Nested function: its body is a new scope; directives inside
		// it are transformed against that scope.
		inner := &fnCtx{
			fd:            t,
			scope:         minipy.AnalyzeScope(t.Params, t.Body),
			threadprivate: ctx.threadprivate,
		}
		body, err := tr.block(inner, t.Body)
		if err != nil {
			return nil, err
		}
		t.Body = body
		return []minipy.Stmt{t}, nil
	}
	return []minipy.Stmt{s}, nil
}

// withDirective recognizes `with omp("...")`.
func withDirective(w *minipy.With) (string, bool) {
	if len(w.Items) != 1 || w.Items[0].Vars != nil {
		return "", false
	}
	return callDirective(w.Items[0].Context)
}

// callDirective recognizes omp("...") calls.
func callDirective(e minipy.Expr) (string, bool) {
	call, ok := e.(*minipy.Call)
	if !ok {
		return "", false
	}
	name, ok := call.Fn.(*minipy.Name)
	if !ok || name.ID != "omp" || len(call.Args) != 1 || len(call.Keywords) != 0 {
		return "", false
	}
	s, ok := call.Args[0].(*minipy.StrLit)
	if !ok {
		return "", false
	}
	return s.V, true
}

// standalone expands a standalone directive into runtime calls.
func (tr *transformer) standalone(ctx *fnCtx, dir *directive.Directive, pos minipy.Position) ([]minipy.Stmt, error) {
	switch dir.Name {
	case directive.NameBarrier:
		return []minipy.Stmt{exprStmt(ompCall("barrier"))}, nil
	case directive.NameTaskwait:
		return []minipy.Stmt{exprStmt(ompCall("task_wait"))}, nil
	case directive.NameFlush:
		return []minipy.Stmt{exprStmt(ompCall("flush"))}, nil
	case directive.NameThreadprivate:
		if cl := dir.Find(directive.ClauseFlushList); cl != nil {
			for _, v := range cl.Vars {
				ctx.threadprivate[v] = true
			}
		}
		return nil, nil // purely declarative
	case directive.NameDeclareReduction:
		return tr.declareReduction(dir, pos)
	}
	return nil, errAt(pos, "directive %q cannot be used standalone", dir.Name)
}

func (tr *transformer) declareReduction(dir *directive.Directive, pos minipy.Position) ([]minipy.Stmt, error) {
	dr := dir.DeclaredReduction
	combiner, err := minipy.ParseExprString(dr.Combiner)
	if err != nil {
		return nil, errAt(pos, "invalid declare reduction combiner %q: %v", dr.Combiner, err)
	}
	combLambda := &minipy.Lambda{
		Params: []minipy.Param{{Name: "omp_out"}, {Name: "omp_in"}},
		Body:   combiner,
	}
	var initArg minipy.Expr = &minipy.NoneLit{}
	if dr.Initializer != "" {
		initExpr, err := minipy.ParseExprString(dr.Initializer)
		if err != nil {
			return nil, errAt(pos, "invalid declare reduction initializer %q: %v", dr.Initializer, err)
		}
		initArg = &minipy.Lambda{Body: initExpr}
	}
	call := ompCall("declare_reduction", strLit(dr.Ident), combLambda, initArg)
	return []minipy.Stmt{exprStmt(call)}, nil
}

// ---- AST construction helpers ----

func nameRef(id string) *minipy.Name          { return &minipy.Name{ID: id} }
func strLit(s string) *minipy.StrLit          { return &minipy.StrLit{V: s} }
func intLit(n int64) *minipy.IntLit           { return &minipy.IntLit{V: n} }
func boolLit(b bool) *minipy.BoolLit          { return &minipy.BoolLit{V: b} }
func exprStmt(e minipy.Expr) *minipy.ExprStmt { return &minipy.ExprStmt{X: e} }
func noneLit() *minipy.NoneLit                { return &minipy.NoneLit{} }

// ompCall builds __omp.fn(args...).
func ompCall(fn string, args ...minipy.Expr) *minipy.Call {
	return &minipy.Call{
		Fn:   &minipy.Attribute{X: nameRef("__omp"), Name: fn},
		Args: args,
	}
}

func assignStmt(target string, v minipy.Expr) *minipy.Assign {
	return &minipy.Assign{Targets: []minipy.Expr{nameRef(target)}, Value: v}
}

// typedDecl initializes a data-sharing copy of a variable declared typ
// ("int", "float", or "" for none). A private copy has the type of its
// original, so a typed one is a declaration, "target: typ = v", or with
// nothing to start from "target: typ"; an untyped one is "target = v",
// a nil v standing for None.
func typedDecl(target, typ string, v minipy.Expr) minipy.Stmt {
	switch {
	case typ != "":
		return &minipy.AnnAssign{Target: nameRef(target), Annotation: nameRef(typ), Value: v}
	case v == nil:
		v = noneLit()
	}
	return assignStmt(target, v)
}

// declaredType is "int" or "float" when the function declares name so,
// by a parameter annotation or "x: T [= e]" statements of its own body,
// and "" when it does not or they disagree. A data-sharing copy of a
// declared name is declared the same (typedDecl).
func (ctx *fnCtx) declaredType(name string) string {
	typ := ""
	for _, ann := range ctx.scope.Annotations {
		t, ok := ann.Type.(*minipy.Name)
		if ann.Name != name || !ok || t.ID != "int" && t.ID != "float" {
			continue
		}
		if typ != "" && typ != t.ID {
			return ""
		}
		typ = t.ID
	}
	return typ
}

func parseClauseExpr(cl *directive.Clause, pos minipy.Position) (minipy.Expr, error) {
	e, err := minipy.ParseExprString(cl.Expr)
	if err != nil {
		return nil, errAt(pos, "invalid %s clause expression %q: %v", cl.Kind, cl.Expr, err)
	}
	return e, nil
}

func intFromString(s string) (int64, bool) {
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}
