package compile

import (
	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
)

// This file is the runtime-aware kernel back end for worksharing
// loops. The transform lowers
//
//	with omp("for schedule(static, c)"): for i in range(a, b, s): body
//
// to the bridge protocol
//
//	__omp_bounds_N = __omp.for_bounds(a, b, s)
//	__omp.for_init(__omp_bounds_N, "static", c, False, nowait)
//	while __omp.for_next(__omp_bounds_N):
//	    for i in range(__omp_bounds_N[0], __omp_bounds_N[1], __omp_bounds_N[2]):
//	        body
//	...reduction merges...
//	__omp.for_end(__omp_bounds_N)
//
// which costs one boxed __omp call per claimed chunk plus boxed
// bounds-tuple indexing per chunk. When the schedule is static and
// compile-time known, every chunk a member will claim is a pure
// function of (thread num, team size, triplet, chunk): the kernel
// replaces the for_bounds/for_init/while prefix with one rt.ForInit
// (region accounting, EvLoopBegin, misuse detection unchanged) and an
// rt.StaticIter walked entirely in native Go. Reduction merges and
// for_end still compile from the lowered form, so barrier ordering
// and the merge critical section are untouched; the member's
// LoopBounds value is stored into the bounds variable so for_end's
// bridge call (one per loop) finds it.
//
// The loop itself is one loopForm (below): the typed loop IR when the
// nest lowers (ir.go, irlower.go) — each claimed chunk is then one
// irProg.run over [Lo, Hi) with list storage hoisted into views for
// the whole kernel, the analogue of Cython acquiring a memoryview
// before a nogil loop — and otherwise the closure chain, one body call
// per iteration, exactly as a serial loop would compile.

// loopForm is the one compiled form of a range loop: the IR program
// of the whole loop, with the closure form of its body built only if
// an entry guard ever fails, or just the closure body when the loop
// does not lower.
type loopForm struct {
	prog  *irProg
	bodyf stmtFn
	slow  func() (stmtFn, error)
}

func (c *compiler) loopBody(sc *scopeCtx, loop *minipy.For) (*loopForm, error) {
	if c.kernels {
		if p := c.lowerLoop(sc, loop); p != nil {
			return &loopForm{prog: p, slow: c.lazy(sc, loop.Body)}, nil
		}
	}
	f, err := c.compileStmts(sc, loop.Body)
	return &loopForm{bodyf: f}, err
}

// enter picks the form for one execution of the loop: nil means the
// IR program's guards hold and prog.run is next, otherwise it is the
// closure body to drive per iteration.
func (lf *loopForm) enter(fr *Frame) (stmtFn, error) {
	switch {
	case lf.prog == nil:
		return lf.bodyf, nil
	case lf.prog.enter(fr):
		return nil, nil
	}
	return lf.slow()
}

// ompCallTo matches e as a call to the generated-code runtime entry
// point __omp.fn. The __omp binding must resolve to the module global
// the interpreter predefines — a shadowed __omp is not the runtime.
func ompCallTo(sc *scopeCtx, e minipy.Expr, fn string) (*minipy.Call, bool) {
	call, ok := e.(*minipy.Call)
	if !ok {
		return nil, false
	}
	attr, ok := call.Fn.(*minipy.Attribute)
	if !ok || attr.Name != fn {
		return nil, false
	}
	base, ok := attr.X.(*minipy.Name)
	if !ok || base.ID != "__omp" {
		return nil, false
	}
	if sc.resolve("__omp").kind != refGlobal {
		return nil, false
	}
	return call, true
}

// boundsIndex matches e as bVar[k].
func boundsIndex(e minipy.Expr, bVar string, k int64) bool {
	idx, ok := e.(*minipy.Index)
	if !ok {
		return false
	}
	n, ok := idx.X.(*minipy.Name)
	if !ok || n.ID != bVar {
		return false
	}
	lit, ok := idx.I.(*minipy.IntLit)
	return ok && lit.V == k
}

// tryCompileKernel recognizes the lowered worksharing prefix starting
// at body[k] and compiles it to a static kernel. It returns (nil, 0,
// nil) when the shape does not match or is ineligible — dynamic,
// guided or runtime schedules, non-literal chunks, ordered loops,
// collapsed nests, lastprivate (which needs the bridge's IsLast
// bookkeeping), or a loop variable without an unboxed int slot — in
// which case the caller compiles the bridge lowering unchanged.
func (c *compiler) tryCompileKernel(sc *scopeCtx, body []minipy.Stmt, k int) (stmtFn, int, error) {
	if k+2 >= len(body) {
		return nil, 0, nil
	}

	// body[k]: __omp_bounds_N = __omp.for_bounds(start, stop, step).
	// Exactly one triplet — collapse(>1) emits 3*n args and iterates
	// linearized indices through unravel, which stays on the bridge.
	as, ok := body[k].(*minipy.Assign)
	if !ok || len(as.Targets) != 1 {
		return nil, 0, nil
	}
	bName, ok := as.Targets[0].(*minipy.Name)
	if !ok {
		return nil, 0, nil
	}
	boundsCall, ok := ompCallTo(sc, as.Value, "for_bounds")
	if !ok || len(boundsCall.Args) != 3 {
		return nil, 0, nil
	}

	// body[k+1]: __omp.for_init(b, "static", chunk, False, nowait)
	// with the schedule fully known at compile time.
	initStmt, ok := body[k+1].(*minipy.ExprStmt)
	if !ok {
		return nil, 0, nil
	}
	initCall, ok := ompCallTo(sc, initStmt.X, "for_init")
	if !ok || len(initCall.Args) != 5 {
		return nil, 0, nil
	}
	if n, ok := initCall.Args[0].(*minipy.Name); !ok || n.ID != bName.ID {
		return nil, 0, nil
	}
	kind, ok := initCall.Args[1].(*minipy.StrLit)
	if !ok || kind.V != "static" {
		return nil, 0, nil
	}
	var chunk int64 // 0 = block partition (the schedule default)
	switch ch := initCall.Args[2].(type) {
	case *minipy.NoneLit:
		chunk = 0
	case *minipy.IntLit:
		if ch.V < 1 {
			return nil, 0, nil // let the bridge raise the ValueError
		}
		chunk = ch.V
	default:
		return nil, 0, nil // runtime-valued chunk
	}
	ordered, ok := initCall.Args[3].(*minipy.BoolLit)
	if !ok || ordered.V {
		return nil, 0, nil
	}
	nowaitLit, ok := initCall.Args[4].(*minipy.BoolLit)
	if !ok {
		return nil, 0, nil
	}

	// body[k+2]: while __omp.for_next(b): for lv in range(b[0], b[1], b[2]).
	wh, ok := body[k+2].(*minipy.While)
	if !ok || len(wh.Body) != 1 {
		return nil, 0, nil
	}
	nextCall, ok := ompCallTo(sc, wh.Cond, "for_next")
	if !ok || len(nextCall.Args) != 1 {
		return nil, 0, nil
	}
	if n, ok := nextCall.Args[0].(*minipy.Name); !ok || n.ID != bName.ID {
		return nil, 0, nil
	}
	loop, ok := wh.Body[0].(*minipy.For)
	if !ok {
		return nil, 0, nil
	}
	lv, ok := loop.Target.(*minipy.Name)
	if !ok {
		return nil, 0, nil
	}
	rangeCall, ok := loop.Iter.(*minipy.Call)
	if !ok || !isRangeCall(loop.Iter) || len(rangeCall.Args) != 3 {
		return nil, 0, nil
	}
	for j := int64(0); j < 3; j++ {
		if !boundsIndex(rangeCall.Args[j], bName.ID, j) {
			return nil, 0, nil
		}
	}
	lvRef := sc.resolve(lv.ID)
	if lvRef.kind != refISlot {
		// A privatized (None-initialized) or captured loop variable is
		// boxed; the unboxed kernel loop needs a native int slot.
		return nil, 0, nil
	}
	lvIdx := lvRef.idx

	// The remainder of the block may reference the bounds variable
	// only as the for_end argument. A for_last reference (lastprivate)
	// needs per-chunk IsLast bookkeeping the kernel does not maintain.
	foundEnd, rest := false, map[string]bool{}
	for _, s := range body[k+3:] {
		if es, ok := s.(*minipy.ExprStmt); ok {
			if endCall, ok := ompCallTo(sc, es.X, "for_end"); ok && len(endCall.Args) == 1 {
				if n, ok := endCall.Args[0].(*minipy.Name); ok && n.ID == bName.ID {
					foundEnd = true
					continue
				}
			}
		}
		minipy.Names(s, rest)
	}
	if !foundEnd || rest[bName.ID] {
		return nil, 0, nil
	}

	// Eligible: compile the pieces.
	pos := as.NodePos()
	startf, err := c.compileInt(sc, boundsCall.Args[0])
	if err != nil {
		return nil, 0, err
	}
	stopf, err := c.compileInt(sc, boundsCall.Args[1])
	if err != nil {
		return nil, 0, err
	}
	stepf, err := c.compileInt(sc, boundsCall.Args[2])
	if err != nil {
		return nil, 0, err
	}
	storeB := sc.store(bName.ID)
	form, err := c.loopBody(sc, loop)
	if err != nil {
		return nil, 0, err
	}

	nowait := nowaitLit.V
	kf := func(fr *Frame) (flow, error) {
		start, err := startf(fr)
		if err != nil {
			return flowNext, err
		}
		stop, err := stopf(fr)
		if err != nil {
			return flowNext, err
		}
		step, err := stepf(fr)
		if err != nil {
			return flowNext, err
		}
		if step == 0 {
			return flowNext, interp.FaultStep.Err(pos)
		}
		b := rt.ForBounds(rt.Triplet{Start: start, End: stop, Step: step})
		// The bounds value feeds the (still bridge-compiled) for_end.
		if err := storeB(fr, &interp.BoundsVal{B: b}); err != nil {
			return flowNext, err
		}
		ctx := fr.th.Ctx()
		err = ctx.ForInit(b, rt.ForOpts{
			SchedSet: true,
			Sched:    rt.Schedule{Kind: directive.ScheduleStatic, Chunk: chunk},
			NoWait:   nowait,
		})
		if err != nil {
			return flowNext, interp.WrapRuntimeError(err)
		}
		it := rt.StaticBounds(ctx.GetThreadNum(), ctx.GetNumThreads(),
			start, stop, step, chunk)
		ctx.KernelEnter(it.Total(), chunk)

		bodyf, err := form.enter(fr)
		if err != nil {
			return flowNext, err
		}
		for it.Next() {
			if bodyf == nil {
				// Bridge semantics hold in the IR too: break leaves the
				// chunk's loop and the next chunk is claimed; return
				// skips the remaining lowered statements, for_end
				// included.
				fl, err := form.prog.run(fr, start+it.Lo*step, start+it.Hi*step, step)
				if err != nil || fl != flowNext {
					return fl, err
				}
				continue
			}
		chunkLoop:
			for lin := it.Lo; lin < it.Hi; lin++ {
				fr.i[lvIdx] = start + lin*step
				fl, err := bodyf(fr)
				if err != nil {
					return flowNext, err
				}
				switch fl {
				case flowBreak:
					// Bridge semantics: break leaves the chunk's range
					// loop; the while claims the next chunk.
					break chunkLoop
				case flowReturn:
					// Mirrors the bridge, where flowReturn skips the
					// remaining lowered statements including for_end.
					return flowReturn, nil
				}
				if err := fr.tick(pos); err != nil {
					return flowNext, err
				}
			}
		}
		return flowNext, nil
	}
	return kf, 3, nil
}
