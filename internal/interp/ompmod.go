package interp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/ompabi"
	"github.com/omp4go/omp4go/internal/rt"
)

// This file implements the two OpenMP-facing modules:
//
//   - omp4py: the user API — the inert omp() directive container and
//     the OpenMP runtime library routines (omp_get_num_threads, ...).
//   - __omp: the internal module referenced by transformer-generated
//     code, one implementation per entry of internal/ompabi's table,
//     bridging to the rt runtime exactly as OMP4Py's generated code
//     calls into its runtime/cruntime. Arity is the table's, checked by
//     CallKw; an implementation checks the kinds of its arguments and
//     takes the failure message from the table (argError).

// BoundsVal wraps the per-thread loop descriptor; generated code
// indexes it like the __omp_bounds array of Fig. 3 ([0] is the
// current chunk's first loop value, [1] its exclusive end).
type BoundsVal struct {
	B *rt.LoopBounds
}

// LockVal wraps an OpenMP simple lock.
type LockVal struct{ L *rt.Lock }

// NestLockVal wraps an OpenMP nestable lock.
type NestLockVal struct{ L *rt.NestLock }

type builtinFn = func(th *Thread, args []Value) (Value, error)

// ompModules builds the omp4py module and the __omp module.
func ompModules() (user, gen *Module) {
	userAttrs := map[string]Value{
		// The inert directive container: calling omp("...") does nothing
		// at run time (§III-A); it also passes decorated functions
		// through unchanged when code reaches the interpreter without
		// transformation.
		"omp": &Builtin{Name: "omp", FnKw: func(th *Thread, args []Value, kwargs map[string]Value) (Value, error) {
			if len(args) == 1 {
				if _, isFn := args[0].(*Function); isFn {
					return args[0], nil
				}
			}
			return nil, nil
		}},
	}
	reg := func(name string, sig Sig, releases bool, fn builtinFn) {
		userAttrs[name] = &Builtin{Name: name, Sig: sig, Fn: fn, ReleasesGIL: releases}
	}

	// ---- user-facing runtime library routines ----

	for name, get := range map[string]func(th *Thread) Value{
		"omp_get_thread_num":        func(th *Thread) Value { return int64(th.ctx.GetThreadNum()) },
		"omp_get_num_threads":       func(th *Thread) Value { return int64(th.ctx.GetNumThreads()) },
		"omp_get_max_threads":       func(th *Thread) Value { return int64(th.in.rt.GetMaxThreads()) },
		"omp_in_parallel":           func(th *Thread) Value { return th.ctx.InParallel() },
		"omp_get_nested":            func(th *Thread) Value { return th.in.rt.GetNested() },
		"omp_get_dynamic":           func(th *Thread) Value { return th.in.rt.GetDynamic() },
		"omp_get_level":             func(th *Thread) Value { return int64(th.ctx.GetLevel()) },
		"omp_get_active_level":      func(th *Thread) Value { return int64(th.ctx.GetActiveLevel()) },
		"omp_get_wtime":             func(th *Thread) Value { return th.in.rt.GetWTime() },
		"omp_get_wtick":             func(th *Thread) Value { return th.in.rt.GetWTick() },
		"omp_get_max_active_levels": func(th *Thread) Value { return int64(th.in.rt.GetMaxActiveLevels()) },
		"omp_get_thread_limit":      func(th *Thread) Value { return int64(th.in.rt.GetThreadLimit()) },
		// The number of processors available to the program, which the
		// nthreads ICV (omp_set_num_threads) does not change.
		"omp_get_num_procs": func(th *Thread) Value { return int64(runtime.NumCPU()) },
		"omp_get_schedule": func(th *Thread) Value {
			s := th.in.rt.GetSchedule()
			return &Tuple{Elts: []Value{s.Kind.String(), s.Chunk}}
		},
		"omp_init_lock":      func(th *Thread) Value { return &LockVal{L: &rt.Lock{}} },
		"omp_init_nest_lock": func(th *Thread) Value { return &NestLockVal{L: &rt.NestLock{}} },
	} {
		reg(name, Args(0, 0), false, func(th *Thread, _ []Value) (Value, error) { return get(th), nil })
	}
	for name, set := range map[string]func(th *Thread, v Value){
		"omp_set_nested":        func(th *Thread, v Value) { th.in.rt.SetNested(Truthy(v)) },
		"omp_set_dynamic":       func(th *Thread, v Value) { th.in.rt.SetDynamic(Truthy(v)) },
		"omp_destroy_lock":      func(*Thread, Value) {},
		"omp_destroy_nest_lock": func(*Thread, Value) {},
	} {
		reg(name, Args(1, 1), false, func(th *Thread, args []Value) (Value, error) { set(th, args[0]); return nil, nil })
	}
	intRoutine := func(name string, fn func(th *Thread, n int) Value) {
		reg(name, Args(1, 1), false, func(th *Thread, args []Value) (Value, error) {
			n, ok := asInt(args[0])
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "%s() argument must be int, not %s", name, TypeName(args[0]))
			}
			return fn(th, int(n)), nil
		})
	}
	intRoutine("omp_set_num_threads", func(th *Thread, n int) Value { th.in.rt.SetNumThreads(n); return nil })
	intRoutine("omp_set_max_active_levels", func(th *Thread, n int) Value { th.in.rt.SetMaxActiveLevels(n); return nil })
	intRoutine("omp_get_ancestor_thread_num", func(th *Thread, n int) Value { return int64(th.ctx.GetAncestorThreadNum(n)) })
	intRoutine("omp_get_team_size", func(th *Thread, n int) Value { return int64(th.ctx.GetTeamSize(n)) })

	reg("omp_set_schedule", Args(1, 2), false, func(th *Thread, args []Value) (Value, error) {
		kindStr, ok := args[0].(string)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "schedule kind must be a string")
		}
		kind, err := directive.ParseScheduleKind(kindStr)
		if err != nil {
			return nil, valueErrorf(minipy.Position{}, "%v", err)
		}
		chunk := int64(0)
		if len(args) == 2 {
			if chunk, ok = asInt(args[1]); !ok {
				return nil, typeErrorf(minipy.Position{}, "chunk must be int")
			}
		}
		if err := th.in.rt.SetSchedule(rt.Schedule{Kind: kind, Chunk: chunk}); err != nil {
			return nil, valueErrorf(minipy.Position{}, "%v", err)
		}
		return nil, nil
	})

	// Locks.
	lockRoutine := func(name string, releases bool, fn func(th *Thread, l *rt.Lock) (Value, error)) {
		reg(name, Args(1, 1), releases, func(th *Thread, args []Value) (Value, error) {
			if l, ok := args[0].(*LockVal); ok {
				return fn(th, l.L)
			}
			return nil, typeErrorf(minipy.Position{}, "%s() requires a lock", name)
		})
	}
	lockRoutine("omp_set_lock", true, func(th *Thread, l *rt.Lock) (Value, error) { l.Set(); return nil, nil })
	lockRoutine("omp_unset_lock", false, func(th *Thread, l *rt.Lock) (Value, error) { return nil, runtimeErr(l.Unset()) })
	lockRoutine("omp_test_lock", false, func(th *Thread, l *rt.Lock) (Value, error) { return l.Test(), nil })
	nestRoutine := func(name string, releases bool, fn func(th *Thread, l *rt.NestLock) (Value, error)) {
		reg(name, Args(1, 1), releases, func(th *Thread, args []Value) (Value, error) {
			if l, ok := args[0].(*NestLockVal); ok {
				return fn(th, l.L)
			}
			return nil, typeErrorf(minipy.Position{}, "%s() requires a nest lock", name)
		})
	}
	nestRoutine("omp_set_nest_lock", true, func(th *Thread, l *rt.NestLock) (Value, error) { l.Set(th.ctx); return nil, nil })
	nestRoutine("omp_unset_nest_lock", false, func(th *Thread, l *rt.NestLock) (Value, error) {
		return nil, runtimeErr(l.Unset(th.ctx))
	})
	nestRoutine("omp_test_nest_lock", false, func(th *Thread, l *rt.NestLock) (Value, error) {
		return int64(l.Test(th.ctx)), nil
	})

	// ---- generated-code runtime entry points (__omp) ----

	genAttrs := make(map[string]Value, ompabi.NumEntries)
	for e, fn := range ompEntries() {
		spec := &ompabi.Specs[e]
		if fn == nil {
			panic("interp: no implementation of " + ompabi.Module + "." + spec.Name)
		}
		genAttrs[spec.Name] = &Builtin{Name: spec.Name, Sig: argsBy(ompabi.Entry(e).Arity()), Fn: fn,
			ReleasesGIL: spec.ReleasesGIL}
	}
	return &Module{Name: "omp4py", Attrs: userAttrs}, &Module{Name: ompabi.Module, Attrs: genAttrs}
}

// argError is the TypeError for argument i of a call to e not being of
// the kind the table declares. Implementations reach it on their
// failure path only.
func argError(e ompabi.Entry, i int, v Value) error {
	return &PyError{Type: "TypeError", Msg: e.KindError(i, TypeName(v))}
}

func callable(v Value) bool {
	switch v.(type) {
	case *Function, *Builtin, *BoundMethod:
		return true
	}
	return false
}

// ompEntries returns the implementation of every __omp entry, indexed
// by ompabi.Entry. Each is stored as the entry's Builtin.Fn directly:
// for_next, for_last, lin_lo and lin_hi run once per claimed chunk.
func ompEntries() [ompabi.NumEntries]builtinFn {
	return [ompabi.NumEntries]builtinFn{
		ompabi.ParallelRun: func(th *Thread, args []Value) (Value, error) {
			fn := args[0]
			if !callable(fn) {
				return nil, argError(ompabi.ParallelRun, 0, fn)
			}
			n, ok := asInt(args[1])
			if !ok {
				return nil, argError(ompabi.ParallelRun, 1, args[1])
			}
			opts := rt.ParallelOpts{NumThreads: int(max(n, 0))}
			if Truthy(args[2]) {
				opts.IfSet, opts.If = true, Truthy(args[3])
			}
			if len(args) > 4 {
				if opts.Label, ok = args[4].(string); !ok {
					return nil, argError(ompabi.ParallelRun, 4, args[4])
				}
			}
			return nil, runtimeErr(th.in.rt.Parallel(th.ctx, opts, func(c *rt.Context) error {
				return th.in.runOn(c, fn)
			}))
		},

		ompabi.ForBounds: func(th *Thread, args []Value) (Value, error) {
			trips := make([]rt.Triplet, 0, len(args)/3)
			for i := 0; i < len(args); i += 3 {
				var t [3]int64
				for j := range t {
					v, ok := asInt(args[i+j])
					if !ok {
						return nil, argError(ompabi.ForBounds, i+j, args[i+j])
					}
					t[j] = v
				}
				if t[2] == 0 {
					return nil, FaultStep.Err(minipy.Position{})
				}
				trips = append(trips, rt.Triplet{Start: t[0], End: t[1], Step: t[2]})
			}
			return &BoundsVal{B: rt.ForBounds(trips...)}, nil
		},

		ompabi.ForInit: func(th *Thread, args []Value) (Value, error) {
			b, ok := args[0].(*BoundsVal)
			if !ok {
				return nil, argError(ompabi.ForInit, 0, args[0])
			}
			kindStr, ok := args[1].(string)
			if !ok {
				return nil, argError(ompabi.ForInit, 1, args[1])
			}
			opts := rt.ForOpts{Ordered: Truthy(args[3]), NoWait: Truthy(args[4])}
			if kindStr != "" {
				kind, err := directive.ParseScheduleKind(kindStr)
				if err != nil {
					return nil, valueErrorf(minipy.Position{}, "%v", err)
				}
				opts.SchedSet = true
				opts.Sched.Kind = kind
				// chunk is an int or None (the kind's default).
				if chunk, ok := asInt(args[2]); ok {
					if chunk < 1 {
						return nil, valueErrorf(minipy.Position{}, "chunk size must be positive")
					}
					opts.Sched.Chunk = chunk
				}
			}
			return nil, runtimeErr(th.ctx.ForInit(b.B, opts))
		},

		ompabi.ForNext: func(th *Thread, args []Value) (Value, error) {
			if b, ok := args[0].(*BoundsVal); ok {
				return b.B.ForNext(), nil
			}
			return nil, argError(ompabi.ForNext, 0, args[0])
		},
		ompabi.ForLast: func(th *Thread, args []Value) (Value, error) {
			if b, ok := args[0].(*BoundsVal); ok {
				return b.B.IsLast(), nil
			}
			return nil, argError(ompabi.ForLast, 0, args[0])
		},
		ompabi.ForEnd: func(th *Thread, args []Value) (Value, error) {
			if b, ok := args[0].(*BoundsVal); ok {
				return nil, runtimeErr(th.ctx.ForEnd(b.B))
			}
			return nil, argError(ompabi.ForEnd, 0, args[0])
		},
		ompabi.LinLo: func(th *Thread, args []Value) (Value, error) {
			if b, ok := args[0].(*BoundsVal); ok {
				return b.B.Lo, nil
			}
			return nil, argError(ompabi.LinLo, 0, args[0])
		},
		ompabi.LinHi: func(th *Thread, args []Value) (Value, error) {
			if b, ok := args[0].(*BoundsVal); ok {
				return b.B.Hi, nil
			}
			return nil, argError(ompabi.LinHi, 0, args[0])
		},

		ompabi.Unravel: func(th *Thread, args []Value) (Value, error) {
			b, ok := args[0].(*BoundsVal)
			if !ok {
				return nil, argError(ompabi.Unravel, 0, args[0])
			}
			lin, ok := asInt(args[1])
			if !ok {
				return nil, argError(ompabi.Unravel, 1, args[1])
			}
			idx := b.B.Unravel(lin)
			elts := make([]Value, len(idx))
			for i, v := range idx {
				elts[i] = v
			}
			return &Tuple{Elts: elts}, nil
		},

		ompabi.Barrier: func(th *Thread, args []Value) (Value, error) {
			return nil, runtimeErr(th.ctx.Barrier())
		},

		ompabi.SingleBegin: func(th *Thread, args []Value) (Value, error) {
			s, err := th.ctx.SingleBegin(Truthy(args[0]), Truthy(args[1]))
			if err != nil {
				return nil, runtimeErr(err)
			}
			th.singles = append(th.singles, s)
			return s.Executes(), nil
		},
		ompabi.SingleCopyprivate: func(th *Thread, args []Value) (Value, error) {
			if _, ok := args[0].(*Tuple); !ok {
				return nil, argError(ompabi.SingleCopyprivate, 0, args[0])
			}
			s, err := innermost(th.singles, "single", ompabi.SingleCopyprivate)
			if err != nil {
				return nil, err
			}
			return nil, runtimeErr(s.CopyPrivate(args[0]))
		},
		ompabi.SingleEnd: func(th *Thread, args []Value) (Value, error) {
			s, err := innermost(th.singles, "single", ompabi.SingleEnd)
			if err != nil {
				return nil, err
			}
			th.singles = th.singles[:len(th.singles)-1]
			v, err := s.End()
			return v, runtimeErr(err)
		},

		ompabi.SectionsBegin: func(th *Thread, args []Value) (Value, error) {
			n, ok := asInt(args[0])
			if !ok {
				return nil, argError(ompabi.SectionsBegin, 0, args[0])
			}
			s, err := th.ctx.SectionsBegin(int(n), Truthy(args[1]))
			if err != nil {
				return nil, runtimeErr(err)
			}
			th.sections = append(th.sections, s)
			return nil, nil
		},
		ompabi.SectionsNext: func(th *Thread, args []Value) (Value, error) {
			s, err := innermost(th.sections, "sections", ompabi.SectionsNext)
			if err != nil {
				return nil, err
			}
			return s.Next(), nil
		},
		ompabi.SectionsLast: func(th *Thread, args []Value) (Value, error) {
			s, err := innermost(th.sections, "sections", ompabi.SectionsLast)
			if err != nil {
				return nil, err
			}
			return s.IsLast(), nil
		},
		ompabi.SectionsEnd: func(th *Thread, args []Value) (Value, error) {
			s, err := innermost(th.sections, "sections", ompabi.SectionsEnd)
			if err != nil {
				return nil, err
			}
			th.sections = th.sections[:len(th.sections)-1]
			return nil, runtimeErr(s.End())
		},

		ompabi.Master: func(th *Thread, args []Value) (Value, error) {
			return th.ctx.Master(), nil
		},

		ompabi.CriticalEnter: func(th *Thread, args []Value) (Value, error) {
			name, ok := args[0].(string)
			if !ok {
				return nil, argError(ompabi.CriticalEnter, 0, args[0])
			}
			th.criticalEnter(name)
			return nil, nil
		},
		ompabi.CriticalExit: func(th *Thread, args []Value) (Value, error) {
			name, ok := args[0].(string)
			if !ok {
				return nil, argError(ompabi.CriticalExit, 0, args[0])
			}
			return nil, th.criticalExit(name)
		},
		ompabi.MutexLock: func(th *Thread, args []Value) (Value, error) {
			th.criticalEnter(reductionMutex)
			return nil, nil
		},
		ompabi.MutexUnlock: func(th *Thread, args []Value) (Value, error) {
			return nil, th.criticalExit(reductionMutex)
		},

		// Go's memory model makes the runtime's synchronization points
		// full fences; flush is a no-op beyond its ordering role.
		ompabi.Flush: func(th *Thread, args []Value) (Value, error) { return nil, nil },

		ompabi.TaskSubmit: func(th *Thread, args []Value) (Value, error) {
			fn := args[0]
			if !callable(fn) {
				return nil, argError(ompabi.TaskSubmit, 0, fn)
			}
			opts := rt.TaskOpts{}
			if Truthy(args[1]) {
				opts.IfSet, opts.If = true, Truthy(args[2])
			}
			if Truthy(args[3]) {
				opts.FinalSet, opts.Final = true, Truthy(args[4])
			}
			for i, kind := range []rt.DepKind{rt.DepIn, rt.DepOut, rt.DepInOut} {
				if 5+i >= len(args) {
					break
				}
				keys, ok := args[5+i].(*Tuple)
				if !ok {
					return nil, argError(ompabi.TaskSubmit, 5+i, args[5+i])
				}
				var err error
				if opts.Depends, err = appendDepKeys(opts.Depends, keys, kind); err != nil {
					return nil, err
				}
			}
			return nil, runtimeErr(th.ctx.SubmitTask(opts, func(c *rt.Context) error {
				return th.in.runOn(c, fn)
			}))
		},
		ompabi.TaskWait: func(th *Thread, args []Value) (Value, error) {
			return nil, runtimeErr(th.ctx.TaskWait())
		},

		ompabi.Taskloop: func(th *Thread, args []Value) (Value, error) {
			fn := args[0]
			if !callable(fn) {
				return nil, argError(ompabi.Taskloop, 0, fn)
			}
			var n [5]int64 // start, stop, step, grainsize, num_tasks
			for i := range n {
				v, ok := asInt(args[1+i])
				if !ok {
					return nil, argError(ompabi.Taskloop, 1+i, args[1+i])
				}
				n[i] = v
			}
			if n[2] == 0 {
				return nil, FaultStep.Err(minipy.Position{})
			}
			opts := rt.TaskLoopOpts{Grainsize: n[3], NumTasks: n[4], NoGroup: Truthy(args[6])}
			if Truthy(args[7]) {
				opts.IfSet, opts.If = true, Truthy(args[8])
			}
			if Truthy(args[9]) {
				opts.FinalSet, opts.Final = true, Truthy(args[10])
			}
			b := rt.ForBounds(rt.Triplet{Start: n[0], End: n[1], Step: n[2]})
			return nil, runtimeErr(th.ctx.TaskLoop(b, opts, func(c *rt.Context, lo, hi int64) error {
				return th.in.runOn(c, fn, lo, hi)
			}))
		},

		ompabi.TaskgroupBegin: func(th *Thread, args []Value) (Value, error) {
			th.ctx.TaskgroupBegin()
			return nil, nil
		},
		ompabi.TaskgroupEnd: func(th *Thread, args []Value) (Value, error) {
			return nil, runtimeErr(th.ctx.TaskgroupEnd())
		},

		ompabi.OrderedBegin: func(th *Thread, args []Value) (Value, error) {
			i, ok := asInt(args[0])
			if !ok {
				return nil, argError(ompabi.OrderedBegin, 0, args[0])
			}
			return nil, runtimeErr(th.ctx.OrderedBegin(i))
		},
		ompabi.OrderedEnd: func(th *Thread, args []Value) (Value, error) {
			return nil, runtimeErr(th.ctx.OrderedEnd())
		},

		ompabi.DeclareReduction: func(th *Thread, args []Value) (Value, error) {
			ident, ok := args[0].(string)
			if !ok {
				return nil, argError(ompabi.DeclareReduction, 0, args[0])
			}
			combiner, initFn := args[1], args[2]
			if !callable(combiner) {
				return nil, argError(ompabi.DeclareReduction, 1, combiner)
			}
			decl := &rt.DeclaredReduction{Ident: ident, Combine: combiner, Identity: initFn}
			return nil, runtimeErr(th.in.rt.RegisterReduction(decl))
		},
		// The combiner and the initializer run on the calling thread, so
		// with the GIL on they run under the GIL their caller holds, and
		// what they raise is the caller's exception. In a team member the
		// generated merge's finally then releases the reduction mutex its
		// teammates wait on.
		ompabi.ReduceInit: func(th *Thread, args []Value) (Value, error) {
			d, err := th.declaredReduction(ompabi.ReduceInit, args[0])
			if err != nil || d.Identity == nil {
				return nil, err
			}
			return th.Call(d.Identity, nil, minipy.Position{})
		},
		ompabi.ReduceCombine: func(th *Thread, args []Value) (Value, error) {
			d, err := th.declaredReduction(ompabi.ReduceCombine, args[0])
			if err != nil {
				return nil, err
			}
			th.ctx.ReductionMerge(d.Ident)
			return th.Call(d.Combine, []Value{args[1], args[2]}, minipy.Position{})
		},
	}
}

// runOn runs fn(args...) on a new thread of team context c: a team
// member, a task or a taskloop chunk.
func (in *Interp) runOn(c *rt.Context, fn Value, args ...Value) error {
	th := in.spawn(c)
	if in.gil != nil {
		in.gil.acquire()
		defer in.gil.release()
	}
	_, err := th.Call(fn, args, minipy.Position{})
	return err
}

// innermost is the innermost construct on one of the thread's
// construct stacks, the one entry e operates on.
func innermost[T any](stack []T, construct string, e ompabi.Entry) (T, error) {
	if len(stack) == 0 {
		var none T
		return none, runtimeErr(&rt.MisuseError{Construct: construct, Msg: e.String() + " outside " + construct})
	}
	return stack[len(stack)-1], nil
}

// reductionMutex is the critical section built-in reductions merge
// under (mutex_lock/mutex_unlock).
const reductionMutex = "__omp_reduction"

// criticalEnter enters the named critical section and records it as
// held by th.
func (th *Thread) criticalEnter(name string) {
	th.ctx.CriticalEnter(name)
	th.critical = append(th.critical, name)
}

// criticalExit leaves the named critical section. Leaving one th does
// not hold is a RuntimeError here: the runtime would unlock a mutex it
// does not own, which Go treats as a fatal error, not a panic.
func (th *Thread) criticalExit(name string) error {
	n := len(th.critical)
	if n == 0 || th.critical[n-1] != name {
		return runtimeErr(&rt.MisuseError{Construct: "critical",
			Msg: fmt.Sprintf("exit of critical section %q this thread is not in", name)})
	}
	th.critical = th.critical[:n-1]
	th.ctx.CriticalExit(name)
	return nil
}

// declaredReduction looks up the user-declared reduction named by v,
// the ident argument of entry e.
func (th *Thread) declaredReduction(e ompabi.Entry, v Value) (*rt.DeclaredReduction, error) {
	ident, ok := v.(string)
	if !ok {
		return nil, argError(e, 0, v)
	}
	d, found := th.in.rt.LookupReduction(ident)
	if !found {
		return nil, nameErrorf(minipy.Position{}, "reduction %q is not declared", ident)
	}
	return d, nil
}

// runtimeErr converts runtime errors into MiniPy exceptions; nil stays
// nil.
func runtimeErr(err error) error {
	if err == nil {
		return nil
	}
	// Budget kills crossing a region join stay budget kills: wrapping
	// one in a PyError would make it catchable (and masked) by tenant
	// except clauses.
	var be *BudgetError
	if errors.As(err, &be) {
		return be
	}
	var pe *PyError
	if errors.As(err, &pe) {
		return pe
	}
	var me *rt.MisuseError
	if errors.As(err, &me) {
		return &PyError{Type: "RuntimeError", Msg: me.Error()}
	}
	var tp *rt.TeamPanic
	if errors.As(err, &tp) {
		return &PyError{Type: "RuntimeError", Msg: tp.Error()}
	}
	return &PyError{Type: "RuntimeError", Msg: fmt.Sprintf("%v", err)}
}

// appendDepKeys converts one tuple of depend-operand keys from
// generated code into runtime dependence records. A plain string is a
// variable name used directly as the storage key; a subscripted
// operand arrives as a ("name", idx...) tuple and is flattened into a
// canonical "name[i,j]" string so element keys compare by value
// (tuples are reference values and would never match).
func appendDepKeys(deps []rt.Dep, t *Tuple, kind rt.DepKind) ([]rt.Dep, error) {
	for _, e := range t.Elts {
		switch k := e.(type) {
		case string:
			deps = append(deps, rt.Dep{Key: k, Kind: kind})
		case *Tuple:
			if len(k.Elts) < 2 {
				return nil, typeErrorf(minipy.Position{}, "subscripted depend key needs a name and indices")
			}
			name, ok := k.Elts[0].(string)
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "depend key root must be a name")
			}
			var b strings.Builder
			b.WriteString(name)
			b.WriteByte('[')
			for i, el := range k.Elts[1:] {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%v", el)
			}
			b.WriteByte(']')
			deps = append(deps, rt.Dep{Key: b.String(), Kind: kind})
		default:
			return nil, typeErrorf(minipy.Position{}, "depend key must be a name or subscripted name")
		}
	}
	return deps, nil
}
