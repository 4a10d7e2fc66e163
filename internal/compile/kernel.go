package compile

import (
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/ompabi"
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
// and leaves on the while a minipy.Workshare record of what it
// lowered. The bridge costs one boxed __omp call per claimed chunk plus
// boxed bounds-tuple indexing per chunk. When the record's schedule is
// static with a compile-time chunk, every chunk a member will claim is
// a pure function of (thread num, team size, triplet, chunk): the
// kernel replaces the while with an rt.StaticIter walked entirely in
// native Go. for_bounds, for_init, the reduction merges and for_end
// still compile as the calls they are, so region accounting, the loop
// events, misuse detection, barrier ordering and the merge critical
// section are untouched; the kernel reads the member's initialized
// LoopBounds from the bounds variable.
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

// compileKernel compiles the `while __omp.for_next(b):` of a lowered
// worksharing loop to a static kernel, from the loop's record. It
// returns nil when the loop is ineligible — dynamic, guided or runtime
// schedules, non-literal chunks, ordered loops, collapsed nests,
// lastprivate (which needs the bridge's IsLast bookkeeping), a loop
// variable without an unboxed int slot, or a shadowed __omp — and the
// while then compiles as the bridge loop it is.
func (c *compiler) compileKernel(sc *scopeCtx, wh *minipy.While) (stmtFn, error) {
	ws := wh.Workshare
	if ws.Kind != "static" || ws.Ordered || ws.LastPrivate || len(ws.Vars) != 1 ||
		sc.resolve(ompabi.Module).kind != refGlobal {
		return nil, nil
	}
	var chunk int64 // 0 = block partition (the schedule default)
	switch ch := ws.Chunk.(type) {
	case *minipy.NoneLit:
	case *minipy.IntLit:
		if ch.V < 1 {
			return nil, nil // let for_init raise the ValueError
		}
		chunk = ch.V
	default:
		return nil, nil // runtime-valued chunk
	}
	lvRef := sc.resolve(ws.Vars[0].ID)
	if lvRef.kind != refISlot {
		// A privatized (None-initialized) or captured loop variable is
		// boxed; the unboxed kernel loop needs a native int slot.
		return nil, nil
	}
	lvIdx := lvRef.idx
	form, err := c.loopBody(sc, wh.Body[0].(*minipy.For))
	if err != nil {
		return nil, err
	}

	pos := wh.NodePos()
	loadB := sc.load(ws.Bounds, pos)
	return func(fr *Frame) (flow, error) {
		bv, err := loadB(fr)
		if err != nil {
			return flowNext, err
		}
		b, ok := bv.(*interp.BoundsVal)
		if !ok {
			return flowNext, interp.NewPyError("TypeError",
				ompabi.ForNext.KindError(0, interp.TypeName(bv)), pos)
		}
		t := b.B.Triplets[0]
		start, step := t.Start, t.Step
		ctx := fr.th.Ctx()
		it := rt.StaticBounds(ctx.GetThreadNum(), ctx.GetNumThreads(), start, t.End, step, chunk)
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
	}, nil
}
