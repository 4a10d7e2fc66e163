package transform

import (
	"strconv"

	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/minipy"
)

// construct dispatches a block directive.
func (tr *transformer) construct(ctx *fnCtx, dir *directive.Directive, w *minipy.With) ([]minipy.Stmt, error) {
	switch dir.Name {
	case directive.NameParallel, directive.NameParallelFor, directive.NameParallelSections:
		return tr.parallel(ctx, dir, w)
	case directive.NameFor:
		return tr.forConstruct(ctx, dir, w.Body, w.NodePos())
	case directive.NameSections:
		return tr.sections(ctx, dir, w.Body, w.NodePos())
	case directive.NameSingle:
		return tr.single(ctx, dir, w)
	case directive.NameMaster:
		return tr.master(ctx, w)
	case directive.NameCritical:
		return tr.critical(ctx, dir, w)
	case directive.NameAtomic:
		return tr.atomic(ctx, dir, w)
	case directive.NameOrdered:
		return tr.ordered(ctx, w)
	case directive.NameTask:
		return tr.task(ctx, dir, w)
	case directive.NameTaskloop:
		return tr.taskloop(ctx, dir, w)
	case directive.NameTaskgroup:
		return tr.taskgroup(ctx, w)
	case directive.NameSection:
		return nil, errAt(w.NodePos(), "section directive is only valid inside a sections construct")
	}
	return nil, errAt(w.NodePos(), "unsupported directive %q", dir.Name)
}

// dataPlan is the uniform machinery behind the data-sharing clauses:
// renamed privates, capture statements, per-thread initializers, and
// mutex-guarded reduction merges (the code shape of Fig. 2).
type dataPlan struct {
	renames   map[string]string
	preOuter  []minipy.Stmt  // before the construct (capture points)
	preInner  []minipy.Stmt  // per thread, before the body
	postInner []minipy.Stmt  // per thread, after the body (merges)
	lastPriv  [][2]string    // (shared, private) pairs for lastprivate
	params    []minipy.Param // firstprivate captures for function-based constructs
	vars      map[string]bool
}

// buildDataPlan processes private/firstprivate/lastprivate/reduction/
// copyin clauses. body is the (already transformed) construct body;
// renames are applied to it here.
//
// asFunction selects the capture mechanism for firstprivate: function
// constructs (parallel, task) bind the value as a default parameter
// of the generated inner function, so each task/region captures at
// packaging time; inline constructs (for, sections, single) read the
// shared variable at construct entry. outside is the enclosing scope
// with the construct excluded (used by default(...) handling); nil
// falls back to the full function scope.
func (tr *transformer) buildDataPlan(ctx *fnCtx, dir *directive.Directive,
	body []minipy.Stmt, pos minipy.Position, asFunction bool,
	outside *minipy.ScopeInfo) (*dataPlan, error) {

	plan := &dataPlan{renames: make(map[string]string), vars: make(map[string]bool)}
	if outside == nil {
		outside = ctx.scope
	}
	capture := func(priv, shared string) {
		typ := ctx.declaredType(shared)
		if asFunction {
			p := minipy.Param{Name: priv, Default: nameRef(shared)}
			if typ != "" {
				p.Annotation = nameRef(typ)
			}
			plan.params = append(plan.params, p)
			return
		}
		cap := tr.fresh("cap_" + shared)
		plan.preOuter = append(plan.preOuter, assignStmt(cap, nameRef(shared)))
		plan.preInner = append(plan.preInner, typedDecl(priv, typ, nameRef(cap)))
	}
	// OpenMP private copies start uninitialized: a typed one is a bare
	// declaration, for an untyped one None is the closest Python
	// rendering.
	uninit := func(priv, shared string) {
		plan.preInner = append(plan.preInner, typedDecl(priv, ctx.declaredType(shared), nil))
	}

	addRename := func(v string) string {
		if nn, ok := plan.renames[v]; ok {
			return nn
		}
		nn := tr.fresh(v)
		plan.renames[v] = nn
		plan.vars[v] = true
		return nn
	}

	// Threadprivate variables behave as private in every region of
	// this function (copyin turns them into firstprivate).
	copyin := map[string]bool{}
	if cl := dir.Find(directive.ClauseCopyin); cl != nil {
		for _, v := range cl.Vars {
			copyin[v] = true
		}
	}
	for v := range ctx.threadprivate {
		nn := addRename(v)
		if copyin[v] {
			capture(nn, v)
		} else {
			uninit(nn, v)
		}
	}

	for _, cl := range dir.FindAll(directive.ClausePrivate) {
		for _, v := range cl.Vars {
			uninit(addRename(v), v)
		}
	}
	for _, cl := range dir.FindAll(directive.ClauseFirstprivate) {
		for _, v := range cl.Vars {
			nn := addRename(v)
			capture(nn, v)
		}
	}
	for _, cl := range dir.FindAll(directive.ClauseLastprivate) {
		for _, v := range cl.Vars {
			// firstprivate+lastprivate combination: a clause above already
			// made and initialized the copy; otherwise it starts unset.
			_, already := plan.renames[v]
			nn := addRename(v)
			if !already {
				uninit(nn, v)
			}
			plan.lastPriv = append(plan.lastPriv, [2]string{v, nn})
		}
	}
	for _, cl := range dir.FindAll(directive.ClauseReduction) {
		for _, v := range cl.Vars {
			nn := addRename(v)
			init, merge, err := tr.reductionPieces(cl.Op, v, nn, ctx.declaredType(v), pos)
			if err != nil {
				return nil, err
			}
			plan.preInner = append(plan.preInner, init)
			plan.postInner = append(plan.postInner, merge)
		}
	}

	// default(none/private/firstprivate) applies to variables bound
	// outside the construct and referenced inside it.
	if def := dir.Find(directive.ClauseDefault); def != nil && def.Default != directive.DefaultShared {
		used := collectNames(body)
		var unlisted []string
		for name := range used {
			if plan.vars[name] || isGeneratedName(name) || name == "omp" {
				continue
			}
			if !outside.IsLocal(name) {
				continue // not bound in the enclosing function: module global or builtin
			}
			unlisted = append(unlisted, name)
		}
		switch def.Default {
		case directive.DefaultNone:
			// Shared-clause names are explicitly listed.
			shared := map[string]bool{}
			for _, cl := range dir.FindAll(directive.ClauseShared) {
				for _, v := range cl.Vars {
					shared[v] = true
				}
			}
			for _, name := range unlisted {
				if !shared[name] {
					return nil, errAt(pos,
						"default(none): variable %q used in the construct has no data-sharing clause", name)
				}
			}
		case directive.DefaultPrivate:
			for _, name := range unlisted {
				uninit(addRename(name), name)
			}
		case directive.DefaultFirstprivate:
			for _, name := range unlisted {
				capture(addRename(name), name)
			}
		}
	}

	renameInStmts(body, plan.renames)
	return plan, nil
}

func isGeneratedName(name string) bool {
	return len(name) >= 6 && name[:6] == "__omp_" || name == "__omp"
}

// reductionPieces builds the private initializer and the
// mutex-guarded merge statement for one reduction variable. When the
// variable is declared typ (int or float), the private copy of an
// arithmetic or bitwise reduction is declared the same and starts from
// the operator's identity as a literal of that type.
func (tr *transformer) reductionPieces(op, shared, private, typ string, pos minipy.Position) (minipy.Stmt, minipy.Stmt, error) {
	var init minipy.Stmt
	var mergeExpr minipy.Expr
	sharedRef := func() minipy.Expr { return nameRef(shared) }
	privRef := func() minipy.Expr { return nameRef(private) }
	identity := func(n int64) minipy.Stmt {
		if typ == "float" {
			return typedDecl(private, typ, &minipy.FloatLit{V: float64(n)})
		}
		return typedDecl(private, typ, intLit(n))
	}
	switch op {
	case "+", "-":
		init = identity(0)
		mergeExpr = &minipy.BinOp{Op: "+", L: sharedRef(), R: privRef()}
	case "*":
		init = identity(1)
		mergeExpr = &minipy.BinOp{Op: "*", L: sharedRef(), R: privRef()}
	case "&":
		init = identity(-1)
		mergeExpr = &minipy.BinOp{Op: "&", L: sharedRef(), R: privRef()}
	case "|":
		init = identity(0)
		mergeExpr = &minipy.BinOp{Op: "|", L: sharedRef(), R: privRef()}
	case "^":
		init = identity(0)
		mergeExpr = &minipy.BinOp{Op: "^", L: sharedRef(), R: privRef()}
	case "&&":
		init = assignStmt(private, boolLit(true))
		mergeExpr = &minipy.BoolOp{Op: "and", Values: []minipy.Expr{sharedRef(), privRef()}}
	case "||":
		init = assignStmt(private, boolLit(false))
		mergeExpr = &minipy.BoolOp{Op: "or", Values: []minipy.Expr{sharedRef(), privRef()}}
	case "min", "max":
		// Seed the private copy from the shared value (idempotent for
		// min/max, avoiding a typed infinity). The read takes the
		// reduction mutex: another thread may already be merging.
		init = &minipy.Try{
			Body: []minipy.Stmt{
				exprStmt(ompCall("mutex_lock")),
				assignStmt(private, sharedRef()),
			},
			Final: []minipy.Stmt{exprStmt(ompCall("mutex_unlock"))},
		}
		mergeExpr = &minipy.Call{Fn: nameRef(op), Args: []minipy.Expr{sharedRef(), privRef()}}
	default:
		// User-declared reduction.
		init = assignStmt(private, ompCall("reduce_init", strLit(op)))
		mergeExpr = ompCall("reduce_combine", strLit(op), sharedRef(), privRef())
	}
	// try: __omp.mutex_lock(); shared = merge finally: __omp.mutex_unlock()
	merge := &minipy.Try{
		Body: []minipy.Stmt{
			exprStmt(ompCall("mutex_lock")),
			assignStmt(shared, mergeExpr),
		},
		Final: []minipy.Stmt{exprStmt(ompCall("mutex_unlock"))},
	}
	return init, merge, nil
}

// shareDecls builds the nonlocal/global declarations for shared
// variables assigned inside a generated inner function (Fig. 2's
// `nonlocal pi_value`). outside is the enclosing function's scope
// with the construct excluded. Names in exclude are implicitly
// private (worksharing and taskloop iteration variables, OpenMP
// §2.9.1) and stay plain locals of the inner function even when the
// enclosing function also binds them — sharing them would make every
// team member race on one cell.
func shareDecls(ctx *fnCtx, outside *minipy.ScopeInfo, innerBody []minipy.Stmt,
	exclude map[string]bool) []minipy.Stmt {
	inner := minipy.AnalyzeScope(nil, innerBody)
	var nonlocals, globals []string
	for _, name := range inner.Locals {
		if isGeneratedName(name) || exclude[name] {
			continue
		}
		switch {
		case ctx.scope.Globals[name]:
			globals = append(globals, name)
		case outside.IsLocal(name):
			nonlocals = append(nonlocals, name)
		}
		// Names bound only inside the block stay thread-private
		// locals of the inner function.
	}
	var out []minipy.Stmt
	if len(globals) > 0 {
		out = append(out, &minipy.Global{Names: globals})
	}
	if len(nonlocals) > 0 {
		out = append(out, &minipy.Nonlocal{Names: nonlocals})
	}
	return out
}

// wsLoopVarNames collects the iteration variables of the lowered
// worksharing loops in stmts: the target of the chunk loop under each
// `while __omp.for_next(b):`, and — for collapsed nests — the
// per-level variables assigned from the generated unravel index.
// These are implicitly private per OpenMP, so shareDecls must not
// turn them into nonlocal declarations. Nested FuncDefs (inner
// regions, tasks) are not entered: their loop variables are already
// locals of their own function.
func wsLoopVarNames(stmts []minipy.Stmt) map[string]bool {
	vars := map[string]bool{}
	var walk func(ss []minipy.Stmt)
	markChunkLoop := func(f *minipy.For) {
		if n, ok := f.Target.(*minipy.Name); ok && !isGeneratedName(n.ID) {
			vars[n.ID] = true
		}
		// Collapsed form: an __omp_idx_N = __omp.unravel(...) prefix
		// followed by lv_d = __omp_idx_N[d] per-level assignments.
		for _, s := range f.Body {
			as, ok := s.(*minipy.Assign)
			if !ok || len(as.Targets) != 1 {
				break
			}
			tgt, ok := as.Targets[0].(*minipy.Name)
			if !ok {
				break
			}
			if isGeneratedName(tgt.ID) {
				continue // the unravel index itself
			}
			idx, ok := as.Value.(*minipy.Index)
			if !ok {
				break
			}
			base, ok := idx.X.(*minipy.Name)
			if !ok || !isGeneratedName(base.ID) {
				break
			}
			vars[tgt.ID] = true
		}
	}
	walk = func(ss []minipy.Stmt) {
		for _, s := range ss {
			switch t := s.(type) {
			case *minipy.While:
				if call, ok := t.Cond.(*minipy.Call); ok {
					if attr, ok := call.Fn.(*minipy.Attribute); ok && attr.Name == "for_next" {
						if base, ok := attr.X.(*minipy.Name); ok && base.ID == "__omp" {
							if len(t.Body) == 1 {
								if f, ok := t.Body[0].(*minipy.For); ok {
									markChunkLoop(f)
								}
							}
						}
					}
				}
				walk(t.Body)
			case *minipy.For:
				walk(t.Body)
			case *minipy.If:
				walk(t.Body)
				walk(t.Else)
			case *minipy.With:
				walk(t.Body)
			case *minipy.Try:
				walk(t.Body)
				for _, h := range t.Handlers {
					walk(h.Body)
				}
				walk(t.Final)
			}
		}
	}
	walk(stmts)
	return vars
}

// parallel transforms parallel, parallel for, and parallel sections.
func (tr *transformer) parallel(ctx *fnCtx, dir *directive.Directive, w *minipy.With) ([]minipy.Stmt, error) {
	pos := w.NodePos()
	outside := minipy.AnalyzeScopeExcluding(ctx.fd.Params, ctx.fd.Body, w)

	var innerBody []minipy.Stmt
	var err error
	switch dir.Name {
	case directive.NameParallelFor:
		loopDir := subsetDirective(dir, directive.NameFor,
			directive.ClauseSchedule, directive.ClauseCollapse, directive.ClauseOrdered,
			directive.ClauseLastprivate, directive.ClauseReduction)
		innerBody, err = tr.forConstruct(ctx, loopDir, w.Body, pos)
	case directive.NameParallelSections:
		secDir := subsetDirective(dir, directive.NameSections,
			directive.ClauseLastprivate, directive.ClauseReduction)
		innerBody, err = tr.sections(ctx, secDir, w.Body, pos)
	default:
		innerBody, err = tr.block(ctx, w.Body)
	}
	if err != nil {
		return nil, err
	}

	// Data clauses held by the parallel part (reduction is delegated
	// to the inner worksharing construct for the combined forms).
	parDir := dir
	if dir.Name != directive.NameParallel {
		parDir = subsetDirective(dir, directive.NameParallel,
			directive.ClauseIf, directive.ClauseNumThreads, directive.ClauseDefault,
			directive.ClausePrivate, directive.ClauseFirstprivate, directive.ClauseShared,
			directive.ClauseCopyin)
	}
	plan, err := tr.buildDataPlan(ctx, parDir, innerBody, pos, true, outside)
	if err != nil {
		return nil, err
	}

	fnBody := append(append(append([]minipy.Stmt{}, plan.preInner...), innerBody...), plan.postInner...)
	decls := shareDecls(ctx, outside, fnBody, wsLoopVarNames(fnBody))
	fnBody = append(decls, fnBody...)

	fnName := tr.fresh("parallel")
	fd := &minipy.FuncDef{Name: fnName, Params: plan.params, Body: fnBody}
	fd.P = pos // a typed firstprivate parameter refusing its value raises here

	// parallel_run(fn, num_threads, if_set, if_val, label): the label
	// carries the directive's source line into the runtime's per-region
	// time-attribution profiler, so hot directives attribute to lines.
	var numThreads minipy.Expr = intLit(0)
	if cl := dir.Find(directive.ClauseNumThreads); cl != nil {
		numThreads, err = parseClauseExpr(cl, pos)
		if err != nil {
			return nil, err
		}
	}
	var ifSet minipy.Expr = boolLit(false)
	var ifVal minipy.Expr = boolLit(false)
	if cl := dir.Find(directive.ClauseIf); cl != nil {
		ifSet = boolLit(true)
		ifVal, err = parseClauseExpr(cl, pos)
		if err != nil {
			return nil, err
		}
	}

	out := append([]minipy.Stmt{}, plan.preOuter...)
	out = append(out, fd,
		exprStmt(ompCall("parallel_run", nameRef(fnName), numThreads, ifSet, ifVal,
			strLit("L"+strconv.Itoa(pos.Line)))))
	return out, nil
}

// subsetDirective builds a synthetic directive holding only the
// listed clause kinds of dir.
func subsetDirective(dir *directive.Directive, name directive.Name, kinds ...directive.ClauseKind) *directive.Directive {
	out := &directive.Directive{Name: name, Raw: dir.Raw}
	keep := make(map[directive.ClauseKind]bool, len(kinds))
	for _, k := range kinds {
		keep[k] = true
	}
	for _, c := range dir.Clauses {
		if keep[c.Kind] {
			out.Clauses = append(out.Clauses, c)
		}
	}
	return out
}

// forConstruct transforms the for directive (Fig. 3).
func (tr *transformer) forConstruct(ctx *fnCtx, dir *directive.Directive,
	body []minipy.Stmt, pos minipy.Position) ([]minipy.Stmt, error) {

	collapse := 1
	if cl := dir.Find(directive.ClauseCollapse); cl != nil {
		if n, ok := intFromString(cl.Expr); ok {
			collapse = int(n)
		}
	}

	// Peel the loop nest: collapse levels must be perfectly nested
	// range loops.
	loops := make([]*minipy.For, 0, collapse)
	cur := body
	for level := 0; level < collapse; level++ {
		if len(cur) != 1 {
			return nil, errAt(pos, "for directive requires a single (perfectly nested) for loop, found %d statements", len(cur))
		}
		loop, ok := cur[0].(*minipy.For)
		if !ok {
			return nil, errAt(pos, "for directive requires a for loop as its body")
		}
		loops = append(loops, loop)
		cur = loop.Body
	}
	innerBody := loops[len(loops)-1].Body

	// Extract range() triplets.
	var tripletArgs []minipy.Expr
	var loopVars []string
	for _, loop := range loops {
		v, ok := loop.Target.(*minipy.Name)
		if !ok {
			return nil, errAt(loop.NodePos(), "parallel loop variable must be a simple name")
		}
		loopVars = append(loopVars, v.ID)
		call, ok := loop.Iter.(*minipy.Call)
		if !ok {
			return nil, errAt(loop.NodePos(), "parallel loops must iterate over range(...)")
		}
		fnName, ok := call.Fn.(*minipy.Name)
		if !ok || fnName.ID != "range" {
			return nil, errAt(loop.NodePos(),
				"parallel loops must iterate over range(...); list comprehensions and other iterables are not supported")
		}
		var start, stop, step minipy.Expr
		switch len(call.Args) {
		case 1:
			start, stop, step = intLit(0), call.Args[0], intLit(1)
		case 2:
			start, stop, step = call.Args[0], call.Args[1], intLit(1)
		case 3:
			start, stop, step = call.Args[0], call.Args[1], call.Args[2]
		default:
			return nil, errAt(loop.NodePos(), "range() takes 1 to 3 arguments")
		}
		tripletArgs = append(tripletArgs, start, stop, step)
	}

	ordered := dir.Has(directive.ClauseOrdered)

	// Transform the loop body (nested directives see the ordered
	// loop variable).
	prevLoopVar := ctx.loopVar
	if ordered {
		ctx.loopVar = loopVars[0]
	}
	tBody, err := tr.block(ctx, innerBody)
	ctx.loopVar = prevLoopVar
	if err != nil {
		return nil, err
	}

	plan, err := tr.buildDataPlan(ctx, dir, tBody, pos, false, nil)
	if err != nil {
		return nil, err
	}

	// Schedule clause. A loop without one gets the explicit "static"
	// default rather than an empty kind: the lowered for_init call is
	// the compiled tier's only schedule metadata, and a literal
	// "static" + literal chunk is what lets it select the
	// precomputed-bounds kernel instead of the per-chunk bridge
	// (internal/compile/kernel.go). The runtime resolves "" and
	// "static" identically, so interp-tier behavior is unchanged.
	var kindExpr minipy.Expr = strLit("static")
	var chunkExpr minipy.Expr = noneLit()
	if cl := dir.Find(directive.ClauseSchedule); cl != nil {
		kindExpr = strLit(cl.Sched.String())
		if cl.Expr != "" {
			chunkExpr, err = parseClauseExpr(cl, pos)
			if err != nil {
				return nil, err
			}
		}
	}
	nowait := dir.Has(directive.ClauseNowait)

	bVar := tr.fresh("bounds")
	var out []minipy.Stmt
	out = append(out, plan.preOuter...)
	out = append(out, plan.preInner...)
	out = append(out, assignStmt(bVar, ompCall("for_bounds", tripletArgs...)))
	out = append(out, exprStmt(ompCall("for_init", nameRef(bVar), kindExpr, chunkExpr,
		boolLit(ordered), boolLit(nowait))))

	var chunkLoop minipy.Stmt
	if collapse == 1 {
		// for i in range(b[0], b[1], b[2]):
		iter := &minipy.Call{Fn: nameRef("range"), Args: []minipy.Expr{
			&minipy.Index{X: nameRef(bVar), I: intLit(0)},
			&minipy.Index{X: nameRef(bVar), I: intLit(1)},
			&minipy.Index{X: nameRef(bVar), I: intLit(2)},
		}}
		chunkLoop = &minipy.For{Target: nameRef(loopVars[0]), Iter: iter, Body: tBody}
	} else {
		// Linear chunk with unraveling into the loop variables.
		linVar := tr.fresh("lin")
		idxVar := tr.fresh("idx")
		inner := []minipy.Stmt{
			assignStmt(idxVar, ompCall("unravel", nameRef(bVar), nameRef(linVar))),
		}
		for d, lv := range loopVars {
			inner = append(inner, assignStmt(lv,
				&minipy.Index{X: nameRef(idxVar), I: intLit(int64(d))}))
		}
		inner = append(inner, tBody...)
		iter := &minipy.Call{Fn: nameRef("range"), Args: []minipy.Expr{
			ompCall("lin_lo", nameRef(bVar)),
			ompCall("lin_hi", nameRef(bVar)),
		}}
		chunkLoop = &minipy.For{Target: nameRef(linVar), Iter: iter, Body: inner}
	}

	out = append(out, &minipy.While{
		Cond: ompCall("for_next", nameRef(bVar)),
		Body: []minipy.Stmt{chunkLoop},
	})
	for _, lp := range plan.lastPriv {
		out = append(out, &minipy.If{
			Cond: ompCall("for_last", nameRef(bVar)),
			Body: []minipy.Stmt{assignStmt(lp[0], nameRef(lp[1]))},
		})
	}
	out = append(out, plan.postInner...)
	out = append(out, exprStmt(ompCall("for_end", nameRef(bVar))))
	return out, nil
}

// sections transforms the sections construct: each section gets a
// fixed sequence id claimed through the shared counter (§III-D).
func (tr *transformer) sections(ctx *fnCtx, dir *directive.Directive,
	body []minipy.Stmt, pos minipy.Position) ([]minipy.Stmt, error) {

	var sectionBodies [][]minipy.Stmt
	for _, s := range body {
		w, ok := s.(*minipy.With)
		if ok {
			if d, isDir := withDirective(w); isDir {
				sd, err := directive.Parse(d)
				if err != nil {
					return nil, errAt(w.NodePos(), "%v", err)
				}
				if sd.Name == directive.NameSection {
					tb, err := tr.block(ctx, w.Body)
					if err != nil {
						return nil, err
					}
					sectionBodies = append(sectionBodies, tb)
					continue
				}
			}
		}
		return nil, errAt(s.NodePos(), "only 'with omp(\"section\")' blocks may appear inside sections")
	}
	if len(sectionBodies) == 0 {
		return nil, errAt(pos, "sections construct contains no section blocks")
	}

	var all []minipy.Stmt
	for _, sb := range sectionBodies {
		all = append(all, sb...)
	}
	plan, err := tr.buildDataPlan(ctx, dir, all, pos, false, nil)
	if err != nil {
		return nil, err
	}

	nowait := dir.Has(directive.ClauseNowait)
	sVar := tr.fresh("section")

	// if s == 0: ... elif s == 1: ...
	var dispatch minipy.Stmt
	for i := len(sectionBodies) - 1; i >= 0; i-- {
		node := &minipy.If{
			Cond: &minipy.Compare{L: nameRef(sVar), Ops: []string{"=="},
				Rights: []minipy.Expr{intLit(int64(i))}},
			Body: sectionBodies[i],
		}
		if dispatch != nil {
			node.Else = []minipy.Stmt{dispatch}
		}
		dispatch = node
	}

	var out []minipy.Stmt
	out = append(out, plan.preOuter...)
	out = append(out, plan.preInner...)
	out = append(out, exprStmt(ompCall("sections_begin",
		intLit(int64(len(sectionBodies))), boolLit(nowait))))
	loop := &minipy.While{
		Cond: boolLit(true),
		Body: []minipy.Stmt{
			assignStmt(sVar, ompCall("sections_next")),
			&minipy.If{
				Cond: &minipy.Compare{L: nameRef(sVar), Ops: []string{"<"},
					Rights: []minipy.Expr{intLit(0)}},
				Body: []minipy.Stmt{&minipy.Break{}},
			},
			dispatch,
		},
	}
	out = append(out, loop)
	for _, lp := range plan.lastPriv {
		out = append(out, &minipy.If{
			Cond: ompCall("sections_last"),
			Body: []minipy.Stmt{assignStmt(lp[0], nameRef(lp[1]))},
		})
	}
	out = append(out, plan.postInner...)
	out = append(out, exprStmt(ompCall("sections_end")))
	return out, nil
}

// single transforms the single construct with optional copyprivate.
func (tr *transformer) single(ctx *fnCtx, dir *directive.Directive, w *minipy.With) ([]minipy.Stmt, error) {
	pos := w.NodePos()
	tBody, err := tr.block(ctx, w.Body)
	if err != nil {
		return nil, err
	}
	plan, err := tr.buildDataPlan(ctx, dir, tBody, pos, false, nil)
	if err != nil {
		return nil, err
	}

	var cpVars []string
	for _, cl := range dir.FindAll(directive.ClauseCopyprivate) {
		cpVars = append(cpVars, cl.Vars...)
	}
	hasCP := len(cpVars) > 0
	nowait := dir.Has(directive.ClauseNowait)

	wonVar := tr.fresh("won")
	ifBody := append(append([]minipy.Stmt{}, plan.preInner...), tBody...)
	if hasCP {
		elts := make([]minipy.Expr, len(cpVars))
		for i, v := range cpVars {
			// copyprivate publishes the private copy when the name is
			// private in this construct, else the variable itself.
			if nn, ok := plan.renames[v]; ok {
				elts[i] = nameRef(nn)
			} else {
				elts[i] = nameRef(v)
			}
		}
		ifBody = append(ifBody,
			exprStmt(ompCall("single_copyprivate", &minipy.TupleLit{Elts: elts})))
	}

	var out []minipy.Stmt
	out = append(out, plan.preOuter...)
	out = append(out, assignStmt(wonVar, ompCall("single_begin", boolLit(nowait), boolLit(hasCP))))
	out = append(out, &minipy.If{Cond: nameRef(wonVar), Body: ifBody})
	if hasCP {
		cpVar := tr.fresh("cp")
		out = append(out, assignStmt(cpVar, ompCall("single_end")))
		for i, v := range cpVars {
			out = append(out, assignStmt(v,
				&minipy.Index{X: nameRef(cpVar), I: intLit(int64(i))}))
		}
	} else {
		out = append(out, exprStmt(ompCall("single_end")))
	}
	out = append(out, plan.postInner...)
	return out, nil
}

func (tr *transformer) master(ctx *fnCtx, w *minipy.With) ([]minipy.Stmt, error) {
	tBody, err := tr.block(ctx, w.Body)
	if err != nil {
		return nil, err
	}
	return []minipy.Stmt{
		&minipy.If{Cond: ompCall("master"), Body: tBody},
	}, nil
}

func (tr *transformer) critical(ctx *fnCtx, dir *directive.Directive, w *minipy.With) ([]minipy.Stmt, error) {
	name := ""
	if cl := dir.Find(directive.ClauseCriticalName); cl != nil {
		name = cl.Expr
	}
	tBody, err := tr.block(ctx, w.Body)
	if err != nil {
		return nil, err
	}
	return []minipy.Stmt{
		exprStmt(ompCall("critical_enter", strLit(name))),
		&minipy.Try{
			Body:  tBody,
			Final: []minipy.Stmt{exprStmt(ompCall("critical_exit", strLit(name)))},
		},
	}, nil
}

// atomic validates the single-update restriction and lowers to a
// per-location critical section (boxed interpreter values cannot use
// hardware atomics; the runtime stripes the locks).
func (tr *transformer) atomic(ctx *fnCtx, dir *directive.Directive, w *minipy.With) ([]minipy.Stmt, error) {
	if len(w.Body) != 1 {
		return nil, errAt(w.NodePos(), "atomic construct requires exactly one update statement")
	}
	var target minipy.Expr
	switch t := w.Body[0].(type) {
	case *minipy.AugAssign:
		target = t.Target
	case *minipy.Assign:
		if len(t.Targets) != 1 {
			return nil, errAt(w.NodePos(), "atomic construct requires a single assignment target")
		}
		target = t.Targets[0]
	case *minipy.ExprStmt:
		return nil, errAt(w.NodePos(), "atomic construct requires an assignment or augmented assignment")
	default:
		return nil, errAt(w.NodePos(), "atomic construct requires an assignment or augmented assignment")
	}
	root := rootName(target)
	if root == "" {
		return nil, errAt(w.NodePos(), "atomic update target must be a variable or subscript")
	}
	name := "__omp_atomic_" + root
	return []minipy.Stmt{
		exprStmt(ompCall("critical_enter", strLit(name))),
		&minipy.Try{
			Body:  []minipy.Stmt{w.Body[0]},
			Final: []minipy.Stmt{exprStmt(ompCall("critical_exit", strLit(name)))},
		},
	}, nil
}

func rootName(e minipy.Expr) string {
	switch t := e.(type) {
	case *minipy.Name:
		return t.ID
	case *minipy.Index:
		return rootName(t.X)
	case *minipy.Attribute:
		return rootName(t.X)
	}
	return ""
}

func (tr *transformer) ordered(ctx *fnCtx, w *minipy.With) ([]minipy.Stmt, error) {
	if ctx.loopVar == "" {
		return nil, errAt(w.NodePos(),
			"ordered region must be closely nested inside a loop with the ordered clause")
	}
	tBody, err := tr.block(ctx, w.Body)
	if err != nil {
		return nil, err
	}
	return []minipy.Stmt{
		exprStmt(ompCall("ordered_begin", nameRef(ctx.loopVar))),
		&minipy.Try{
			Body:  tBody,
			Final: []minipy.Stmt{exprStmt(ompCall("ordered_end"))},
		},
	}, nil
}

// task transforms the task directive: the body is packaged into an
// inner function submitted to the team's shared queue (§III-E).
func (tr *transformer) task(ctx *fnCtx, dir *directive.Directive, w *minipy.With) ([]minipy.Stmt, error) {
	pos := w.NodePos()
	outside := minipy.AnalyzeScopeExcluding(ctx.fd.Params, ctx.fd.Body, w)

	tBody, err := tr.block(ctx, w.Body)
	if err != nil {
		return nil, err
	}
	plan, err := tr.buildDataPlan(ctx, dir, tBody, pos, true, outside)
	if err != nil {
		return nil, err
	}

	fnBody := append(append([]minipy.Stmt{}, plan.preInner...), tBody...)
	fnBody = append(fnBody, plan.postInner...)
	decls := shareDecls(ctx, outside, fnBody, nil)
	fnBody = append(decls, fnBody...)

	fnName := tr.fresh("task")
	fd := &minipy.FuncDef{Name: fnName, Params: plan.params, Body: fnBody}
	fd.P = pos // a typed firstprivate parameter refusing its value raises here

	var ifSet, ifVal minipy.Expr = boolLit(false), boolLit(false)
	if cl := dir.Find(directive.ClauseIf); cl != nil {
		ifSet = boolLit(true)
		ifVal, err = parseClauseExpr(cl, pos)
		if err != nil {
			return nil, err
		}
	}
	var finalSet, finalVal minipy.Expr = boolLit(false), boolLit(false)
	if cl := dir.Find(directive.ClauseFinal); cl != nil {
		finalSet = boolLit(true)
		finalVal, err = parseClauseExpr(cl, pos)
		if err != nil {
			return nil, err
		}
	}

	// depend clauses lower to key tuples evaluated at submission time
	// in the submitting scope (index expressions read current values).
	var depIn, depOut, depInout []minipy.Expr
	for _, cl := range dir.FindAll(directive.ClauseDepend) {
		for _, v := range cl.Vars {
			key, err := dependKeyExpr(v, pos)
			if err != nil {
				return nil, err
			}
			switch cl.Op {
			case "in":
				depIn = append(depIn, key)
			case "out":
				depOut = append(depOut, key)
			default:
				depInout = append(depInout, key)
			}
		}
	}

	out := append([]minipy.Stmt{}, plan.preOuter...)
	callArgs := []minipy.Expr{nameRef(fnName), ifSet, ifVal, finalSet, finalVal}
	if len(depIn)+len(depOut)+len(depInout) > 0 {
		callArgs = append(callArgs,
			&minipy.TupleLit{Elts: depIn},
			&minipy.TupleLit{Elts: depOut},
			&minipy.TupleLit{Elts: depInout})
	}
	out = append(out, fd, exprStmt(ompCall("task_submit", callArgs...)))
	return out, nil
}

// dependKeyExpr lowers one depend operand to its storage-key
// expression: a plain name becomes a string literal, a subscripted
// name a ("name", idx...) tuple whose index expressions the generated
// code evaluates at submission time.
func dependKeyExpr(operand string, pos minipy.Position) (minipy.Expr, error) {
	e, err := minipy.ParseExprString(operand)
	if err != nil {
		return nil, errAt(pos, "invalid depend operand %q: %v", operand, err)
	}
	var idx []minipy.Expr
	for {
		switch t := e.(type) {
		case *minipy.Name:
			if len(idx) == 0 {
				return strLit(t.ID), nil
			}
			return &minipy.TupleLit{Elts: append([]minipy.Expr{strLit(t.ID)}, idx...)}, nil
		case *minipy.Index:
			idx = append([]minipy.Expr{t.I}, idx...)
			e = t.X
		default:
			return nil, errAt(pos, "depend operand %q must be a variable or subscripted variable", operand)
		}
	}
}

// taskgroup transforms the taskgroup construct: deep completion wait
// on the directly generated tasks and all their descendants, with the
// end reached even when the body raises so the group stays balanced.
func (tr *transformer) taskgroup(ctx *fnCtx, w *minipy.With) ([]minipy.Stmt, error) {
	tBody, err := tr.block(ctx, w.Body)
	if err != nil {
		return nil, err
	}
	return []minipy.Stmt{
		exprStmt(ompCall("taskgroup_begin")),
		&minipy.Try{
			Body:  tBody,
			Final: []minipy.Stmt{exprStmt(ompCall("taskgroup_end"))},
		},
	}, nil
}

// taskloop transforms the taskloop construct: the runtime chunks the
// loop's iteration space into child tasks, each invoking the
// generated chunk function with a [lo, hi) range of linear indices.
func (tr *transformer) taskloop(ctx *fnCtx, dir *directive.Directive, w *minipy.With) ([]minipy.Stmt, error) {
	pos := w.NodePos()
	outside := minipy.AnalyzeScopeExcluding(ctx.fd.Params, ctx.fd.Body, w)

	if len(w.Body) != 1 {
		return nil, errAt(pos, "taskloop requires a single for loop, found %d statements", len(w.Body))
	}
	loop, ok := w.Body[0].(*minipy.For)
	if !ok {
		return nil, errAt(pos, "taskloop requires a for loop as its body")
	}
	v, ok := loop.Target.(*minipy.Name)
	if !ok {
		return nil, errAt(loop.NodePos(), "taskloop loop variable must be a simple name")
	}
	call, ok := loop.Iter.(*minipy.Call)
	if !ok {
		return nil, errAt(loop.NodePos(), "taskloop must iterate over range(...)")
	}
	fnRef, ok := call.Fn.(*minipy.Name)
	if !ok || fnRef.ID != "range" {
		return nil, errAt(loop.NodePos(), "taskloop must iterate over range(...)")
	}
	var start, stop, step minipy.Expr
	switch len(call.Args) {
	case 1:
		start, stop, step = intLit(0), call.Args[0], intLit(1)
	case 2:
		start, stop, step = call.Args[0], call.Args[1], intLit(1)
	case 3:
		start, stop, step = call.Args[0], call.Args[1], call.Args[2]
	default:
		return nil, errAt(loop.NodePos(), "range() takes 1 to 3 arguments")
	}

	tBody, err := tr.block(ctx, loop.Body)
	if err != nil {
		return nil, err
	}
	plan, err := tr.buildDataPlan(ctx, dir, tBody, pos, true, outside)
	if err != nil {
		return nil, err
	}

	// The loop variable is private to each chunk task: keep it a local
	// of the chunk function (unless a data clause already renamed it).
	lv, renamed := plan.renames[v.ID]
	if !renamed {
		lv = tr.fresh(v.ID)
		renameInStmts(tBody, map[string]string{v.ID: lv})
	}

	// Bounds are captured once, before the chunk function definition,
	// so its defaults and the runtime call see the same values.
	startVar := tr.fresh("tl_start")
	stopVar := tr.fresh("tl_stop")
	stepVar := tr.fresh("tl_step")
	loVar, hiVar := tr.fresh("lo"), tr.fresh("hi")
	startP, stepP := tr.fresh("startp"), tr.fresh("stepp")

	// for <lv> in range(start + lo*step, start + hi*step, step): body
	linVal := func(edge string) minipy.Expr {
		return &minipy.BinOp{Op: "+", L: nameRef(startP),
			R: &minipy.BinOp{Op: "*", L: nameRef(edge), R: nameRef(stepP)}}
	}
	chunkLoop := &minipy.For{
		Target: nameRef(lv),
		Iter: &minipy.Call{Fn: nameRef("range"), Args: []minipy.Expr{
			linVal(loVar), linVal(hiVar), nameRef(stepP)}},
		Body: tBody,
	}

	fnBody := append(append([]minipy.Stmt{}, plan.preInner...), chunkLoop)
	fnBody = append(fnBody, plan.postInner...)
	// The taskloop iteration variable is implicitly private to each
	// chunk task (OpenMP §2.9.1), exactly like a worksharing loop var.
	decls := shareDecls(ctx, outside, fnBody, map[string]bool{lv: true})
	fnBody = append(decls, fnBody...)

	params := []minipy.Param{
		{Name: loVar}, {Name: hiVar},
		{Name: startP, Default: nameRef(startVar)},
		{Name: stepP, Default: nameRef(stepVar)},
	}
	params = append(params, plan.params...)
	fnName := tr.fresh("taskloop")
	fd := &minipy.FuncDef{Name: fnName, Params: params, Body: fnBody}
	fd.P = pos // a typed firstprivate parameter refusing its value raises here

	var gsExpr, ntExpr minipy.Expr = intLit(0), intLit(0)
	if cl := dir.Find(directive.ClauseGrainsize); cl != nil {
		if gsExpr, err = parseClauseExpr(cl, pos); err != nil {
			return nil, err
		}
	}
	if cl := dir.Find(directive.ClauseNumTasks); cl != nil {
		if ntExpr, err = parseClauseExpr(cl, pos); err != nil {
			return nil, err
		}
	}
	var ifSet, ifVal minipy.Expr = boolLit(false), boolLit(false)
	if cl := dir.Find(directive.ClauseIf); cl != nil {
		ifSet = boolLit(true)
		if ifVal, err = parseClauseExpr(cl, pos); err != nil {
			return nil, err
		}
	}
	var finalSet, finalVal minipy.Expr = boolLit(false), boolLit(false)
	if cl := dir.Find(directive.ClauseFinal); cl != nil {
		finalSet = boolLit(true)
		if finalVal, err = parseClauseExpr(cl, pos); err != nil {
			return nil, err
		}
	}

	out := append([]minipy.Stmt{}, plan.preOuter...)
	out = append(out,
		assignStmt(startVar, start),
		assignStmt(stopVar, stop),
		assignStmt(stepVar, step),
		fd,
		exprStmt(ompCall("taskloop", nameRef(fnName),
			nameRef(startVar), nameRef(stopVar), nameRef(stepVar),
			gsExpr, ntExpr, boolLit(dir.Has(directive.ClauseNogroup)),
			ifSet, ifVal, finalSet, finalVal)))
	return out, nil
}
