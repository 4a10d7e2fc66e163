package interp

import (
	"errors"
	"fmt"

	"strings"

	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
)

// This file implements the two OpenMP-facing modules:
//
//   - omp4py: the user API — the inert omp() directive container and
//     the OpenMP runtime library routines (omp_get_num_threads, ...).
//   - __omp: the internal module referenced by transformer-generated
//     code (parallel_run, for_bounds/for_init/for_next, task_submit,
//     ...), bridging to the rt runtime exactly as OMP4Py's generated
//     code calls into its runtime/cruntime.

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

func (in *Interp) installOmpModule() {
	user := map[string]Value{}
	gen := map[string]Value{}

	reg := func(m map[string]Value, name string, releases bool,
		fn func(th *Thread, args []Value) (Value, error)) {
		m[name] = &Builtin{Name: name, Fn: fn, ReleasesGIL: releases}
	}

	// The inert directive container: calling omp("...") does nothing
	// at run time (§III-A); it also passes decorated functions
	// through unchanged when code reaches the interpreter without
	// transformation.
	user["omp"] = &Builtin{Name: "omp", FnKw: func(th *Thread, args []Value, kwargs map[string]Value) (Value, error) {
		if len(args) == 1 {
			if _, isFn := args[0].(*Function); isFn {
				return args[0], nil
			}
		}
		return nil, nil
	}, Fn: func(th *Thread, args []Value) (Value, error) {
		if len(args) == 1 {
			if _, isFn := args[0].(*Function); isFn {
				return args[0], nil
			}
		}
		return nil, nil
	}}

	// ---- user-facing runtime library routines ----

	reg(user, "omp_get_thread_num", false, func(th *Thread, args []Value) (Value, error) {
		return int64(th.ctx.GetThreadNum()), nil
	})
	reg(user, "omp_get_num_threads", false, func(th *Thread, args []Value) (Value, error) {
		return int64(th.ctx.GetNumThreads()), nil
	})
	reg(user, "omp_set_num_threads", false, func(th *Thread, args []Value) (Value, error) {
		n, ok := asInt(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "omp_set_num_threads() requires an int")
		}
		th.in.rt.SetNumThreads(int(n))
		return nil, nil
	})
	reg(user, "omp_get_max_threads", false, func(th *Thread, args []Value) (Value, error) {
		return int64(th.in.rt.GetMaxThreads()), nil
	})
	reg(user, "omp_in_parallel", false, func(th *Thread, args []Value) (Value, error) {
		return th.ctx.InParallel(), nil
	})
	reg(user, "omp_set_nested", false, func(th *Thread, args []Value) (Value, error) {
		th.in.rt.SetNested(Truthy(args[0]))
		return nil, nil
	})
	reg(user, "omp_get_nested", false, func(th *Thread, args []Value) (Value, error) {
		return th.in.rt.GetNested(), nil
	})
	reg(user, "omp_set_dynamic", false, func(th *Thread, args []Value) (Value, error) {
		th.in.rt.SetDynamic(Truthy(args[0]))
		return nil, nil
	})
	reg(user, "omp_get_dynamic", false, func(th *Thread, args []Value) (Value, error) {
		return th.in.rt.GetDynamic(), nil
	})
	reg(user, "omp_get_level", false, func(th *Thread, args []Value) (Value, error) {
		return int64(th.ctx.GetLevel()), nil
	})
	reg(user, "omp_get_active_level", false, func(th *Thread, args []Value) (Value, error) {
		return int64(th.ctx.GetActiveLevel()), nil
	})
	reg(user, "omp_get_ancestor_thread_num", false, func(th *Thread, args []Value) (Value, error) {
		n, ok := asInt(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "level must be int")
		}
		return int64(th.ctx.GetAncestorThreadNum(int(n))), nil
	})
	reg(user, "omp_get_team_size", false, func(th *Thread, args []Value) (Value, error) {
		n, ok := asInt(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "level must be int")
		}
		return int64(th.ctx.GetTeamSize(int(n))), nil
	})
	reg(user, "omp_get_wtime", false, func(th *Thread, args []Value) (Value, error) {
		return th.in.rt.GetWTime(), nil
	})
	reg(user, "omp_get_wtick", false, func(th *Thread, args []Value) (Value, error) {
		return th.in.rt.GetWTick(), nil
	})
	reg(user, "omp_set_max_active_levels", false, func(th *Thread, args []Value) (Value, error) {
		n, ok := asInt(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "levels must be int")
		}
		th.in.rt.SetMaxActiveLevels(int(n))
		return nil, nil
	})
	reg(user, "omp_get_max_active_levels", false, func(th *Thread, args []Value) (Value, error) {
		return int64(th.in.rt.GetMaxActiveLevels()), nil
	})
	reg(user, "omp_get_thread_limit", false, func(th *Thread, args []Value) (Value, error) {
		return int64(th.in.rt.GetThreadLimit()), nil
	})
	reg(user, "omp_get_num_procs", false, func(th *Thread, args []Value) (Value, error) {
		return int64(th.in.rt.GetMaxThreads()), nil
	})
	reg(user, "omp_set_schedule", false, func(th *Thread, args []Value) (Value, error) {
		if len(args) < 1 || len(args) > 2 {
			return nil, typeErrorf(minipy.Position{}, "omp_set_schedule(kind, chunk)")
		}
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
			c, ok := asInt(args[1])
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "chunk must be int")
			}
			chunk = c
		}
		if err := th.in.rt.SetSchedule(rt.Schedule{Kind: kind, Chunk: chunk}); err != nil {
			return nil, valueErrorf(minipy.Position{}, "%v", err)
		}
		return nil, nil
	})
	reg(user, "omp_get_schedule", false, func(th *Thread, args []Value) (Value, error) {
		s := th.in.rt.GetSchedule()
		return &Tuple{Elts: []Value{s.Kind.String(), s.Chunk}}, nil
	})

	// Locks.
	reg(user, "omp_init_lock", false, func(th *Thread, args []Value) (Value, error) {
		return &LockVal{L: &rt.Lock{}}, nil
	})
	reg(user, "omp_destroy_lock", false, func(th *Thread, args []Value) (Value, error) {
		return nil, nil
	})
	reg(user, "omp_set_lock", true, func(th *Thread, args []Value) (Value, error) {
		l, ok := args[0].(*LockVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "omp_set_lock() requires a lock")
		}
		l.L.Set()
		return nil, nil
	})
	reg(user, "omp_unset_lock", false, func(th *Thread, args []Value) (Value, error) {
		l, ok := args[0].(*LockVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "omp_unset_lock() requires a lock")
		}
		if err := l.L.Unset(); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})
	reg(user, "omp_test_lock", false, func(th *Thread, args []Value) (Value, error) {
		l, ok := args[0].(*LockVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "omp_test_lock() requires a lock")
		}
		return l.L.Test(), nil
	})
	reg(user, "omp_init_nest_lock", false, func(th *Thread, args []Value) (Value, error) {
		return &NestLockVal{L: &rt.NestLock{}}, nil
	})
	reg(user, "omp_destroy_nest_lock", false, func(th *Thread, args []Value) (Value, error) {
		return nil, nil
	})
	reg(user, "omp_set_nest_lock", true, func(th *Thread, args []Value) (Value, error) {
		l, ok := args[0].(*NestLockVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "omp_set_nest_lock() requires a nest lock")
		}
		l.L.Set(th.ctx)
		return nil, nil
	})
	reg(user, "omp_unset_nest_lock", false, func(th *Thread, args []Value) (Value, error) {
		l, ok := args[0].(*NestLockVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "omp_unset_nest_lock() requires a nest lock")
		}
		if err := l.L.Unset(th.ctx); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})
	reg(user, "omp_test_nest_lock", false, func(th *Thread, args []Value) (Value, error) {
		l, ok := args[0].(*NestLockVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "omp_test_nest_lock() requires a nest lock")
		}
		return int64(l.L.Test(th.ctx)), nil
	})

	// ---- generated-code runtime entry points (__omp) ----

	reg(gen, "parallel_run", true, func(th *Thread, args []Value) (Value, error) {
		// parallel_run(fn, nthreads, if_set, if_val[, label]) — the
		// optional 5th argument is the directive's source label for
		// the time-attribution profiler (older generated code omits
		// it).
		if len(args) != 4 && len(args) != 5 {
			return nil, typeErrorf(minipy.Position{}, "parallel_run expects 4 or 5 arguments")
		}
		fn := args[0]
		opts := rt.ParallelOpts{}
		if n, ok := asInt(args[1]); ok && n > 0 {
			opts.NumThreads = int(n)
		}
		if Truthy(args[2]) {
			opts.IfSet = true
			opts.If = Truthy(args[3])
		}
		if len(args) == 5 {
			if s, ok := args[4].(string); ok {
				opts.Label = s
			}
		}
		in := th.in
		err := in.rt.Parallel(th.ctx, opts, func(c *rt.Context) error {
			member := in.spawn(c)
			if in.gil != nil {
				in.gil.acquire()
				defer in.gil.release()
			}
			_, err := member.Call(fn, nil, minipy.Position{})
			return err
		})
		if err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "for_bounds", false, func(th *Thread, args []Value) (Value, error) {
		if len(args) == 0 || len(args)%3 != 0 {
			return nil, typeErrorf(minipy.Position{}, "for_bounds expects start/stop/step triplets")
		}
		trips := make([]rt.Triplet, 0, len(args)/3)
		for i := 0; i < len(args); i += 3 {
			s, ok1 := asInt(args[i])
			e, ok2 := asInt(args[i+1])
			st, ok3 := asInt(args[i+2])
			if !ok1 || !ok2 || !ok3 {
				return nil, typeErrorf(minipy.Position{}, "loop bounds must be integers")
			}
			if st == 0 {
				return nil, FaultStep.Err(minipy.Position{})
			}
			trips = append(trips, rt.Triplet{Start: s, End: e, Step: st})
		}
		return &BoundsVal{B: rt.ForBounds(trips...)}, nil
	})

	reg(gen, "for_init", false, func(th *Thread, args []Value) (Value, error) {
		// for_init(b, kind, chunk, ordered, nowait)
		if len(args) != 5 {
			return nil, typeErrorf(minipy.Position{}, "for_init expects 5 arguments")
		}
		b, ok := args[0].(*BoundsVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "for_init first argument must be loop bounds")
		}
		opts := rt.ForOpts{
			Ordered: Truthy(args[3]),
			NoWait:  Truthy(args[4]),
		}
		if kindStr, ok := args[1].(string); ok && kindStr != "" {
			kind, err := directive.ParseScheduleKind(kindStr)
			if err != nil {
				return nil, valueErrorf(minipy.Position{}, "%v", err)
			}
			opts.SchedSet = true
			opts.Sched.Kind = kind
			if chunk, ok := asInt(args[2]); ok {
				if chunk < 1 {
					return nil, valueErrorf(minipy.Position{}, "chunk size must be positive")
				}
				opts.Sched.Chunk = chunk
			}
		}
		if err := th.ctx.ForInit(b.B, opts); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "for_next", false, func(th *Thread, args []Value) (Value, error) {
		b, ok := args[0].(*BoundsVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "for_next argument must be loop bounds")
		}
		return b.B.ForNext(), nil
	})

	reg(gen, "for_last", false, func(th *Thread, args []Value) (Value, error) {
		b, ok := args[0].(*BoundsVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "for_last argument must be loop bounds")
		}
		return b.B.IsLast(), nil
	})

	reg(gen, "for_end", true, func(th *Thread, args []Value) (Value, error) {
		b, ok := args[0].(*BoundsVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "for_end argument must be loop bounds")
		}
		if err := th.ctx.ForEnd(b.B); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "lin_lo", false, func(th *Thread, args []Value) (Value, error) {
		b, ok := args[0].(*BoundsVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "lin_lo argument must be loop bounds")
		}
		return b.B.Lo, nil
	})

	reg(gen, "lin_hi", false, func(th *Thread, args []Value) (Value, error) {
		b, ok := args[0].(*BoundsVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "lin_hi argument must be loop bounds")
		}
		return b.B.Hi, nil
	})

	reg(gen, "unravel", false, func(th *Thread, args []Value) (Value, error) {
		b, ok := args[0].(*BoundsVal)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "unravel first argument must be loop bounds")
		}
		lin, ok := asInt(args[1])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "unravel index must be int")
		}
		idx := b.B.Unravel(lin)
		elts := make([]Value, len(idx))
		for i, v := range idx {
			elts[i] = v
		}
		return &Tuple{Elts: elts}, nil
	})

	reg(gen, "barrier", true, func(th *Thread, args []Value) (Value, error) {
		if err := th.ctx.Barrier(); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "single_begin", false, func(th *Thread, args []Value) (Value, error) {
		// single_begin(nowait, copyprivate)
		s, err := th.ctx.SingleBegin(Truthy(args[0]), Truthy(args[1]))
		if err != nil {
			return nil, runtimeErr(err)
		}
		th.singles = append(th.singles, s)
		return s.Executes(), nil
	})

	reg(gen, "single_copyprivate", false, func(th *Thread, args []Value) (Value, error) {
		if len(th.singles) == 0 {
			return nil, runtimeErr(&rt.MisuseError{Construct: "single", Msg: "copyprivate outside single"})
		}
		s := th.singles[len(th.singles)-1]
		if err := s.CopyPrivate(args[0]); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "single_end", true, func(th *Thread, args []Value) (Value, error) {
		if len(th.singles) == 0 {
			return nil, runtimeErr(&rt.MisuseError{Construct: "single", Msg: "single_end without single_begin"})
		}
		s := th.singles[len(th.singles)-1]
		th.singles = th.singles[:len(th.singles)-1]
		v, err := s.End()
		if err != nil {
			return nil, runtimeErr(err)
		}
		return v, nil
	})

	reg(gen, "sections_begin", false, func(th *Thread, args []Value) (Value, error) {
		n, ok := asInt(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "sections count must be int")
		}
		s, err := th.ctx.SectionsBegin(int(n), Truthy(args[1]))
		if err != nil {
			return nil, runtimeErr(err)
		}
		th.sections = append(th.sections, s)
		return nil, nil
	})

	reg(gen, "sections_next", false, func(th *Thread, args []Value) (Value, error) {
		if len(th.sections) == 0 {
			return nil, runtimeErr(&rt.MisuseError{Construct: "sections", Msg: "sections_next outside sections"})
		}
		return th.sections[len(th.sections)-1].Next(), nil
	})

	reg(gen, "sections_last", false, func(th *Thread, args []Value) (Value, error) {
		if len(th.sections) == 0 {
			return nil, runtimeErr(&rt.MisuseError{Construct: "sections", Msg: "sections_last outside sections"})
		}
		return th.sections[len(th.sections)-1].IsLast(), nil
	})

	reg(gen, "sections_end", true, func(th *Thread, args []Value) (Value, error) {
		if len(th.sections) == 0 {
			return nil, runtimeErr(&rt.MisuseError{Construct: "sections", Msg: "sections_end without sections_begin"})
		}
		s := th.sections[len(th.sections)-1]
		th.sections = th.sections[:len(th.sections)-1]
		if err := s.End(); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "master", false, func(th *Thread, args []Value) (Value, error) {
		return th.ctx.Master(), nil
	})

	reg(gen, "critical_enter", true, func(th *Thread, args []Value) (Value, error) {
		name, _ := args[0].(string)
		th.ctx.CriticalEnter(name)
		return nil, nil
	})

	reg(gen, "critical_exit", false, func(th *Thread, args []Value) (Value, error) {
		name, _ := args[0].(string)
		th.ctx.CriticalExit(name)
		return nil, nil
	})

	reg(gen, "mutex_lock", true, func(th *Thread, args []Value) (Value, error) {
		th.ctx.CriticalEnter("__omp_reduction")
		return nil, nil
	})

	reg(gen, "mutex_unlock", false, func(th *Thread, args []Value) (Value, error) {
		th.ctx.CriticalExit("__omp_reduction")
		return nil, nil
	})

	reg(gen, "flush", false, func(th *Thread, args []Value) (Value, error) {
		// Go's memory model makes the runtime's synchronization points
		// full fences; flush is a no-op beyond its ordering role.
		return nil, nil
	})

	reg(gen, "task_submit", true, func(th *Thread, args []Value) (Value, error) {
		// task_submit(fn, if_set, if_val, final_set, final_val
		//             [, in_keys, out_keys, inout_keys])
		if len(args) != 5 && len(args) != 8 {
			return nil, typeErrorf(minipy.Position{}, "task_submit expects 5 or 8 arguments")
		}
		fn := args[0]
		opts := rt.TaskOpts{}
		if Truthy(args[1]) {
			opts.IfSet, opts.If = true, Truthy(args[2])
		}
		if Truthy(args[3]) {
			opts.FinalSet, opts.Final = true, Truthy(args[4])
		}
		if len(args) == 8 {
			var err error
			if opts.Depends, err = appendDepKeys(opts.Depends, args[5], rt.DepIn); err != nil {
				return nil, err
			}
			if opts.Depends, err = appendDepKeys(opts.Depends, args[6], rt.DepOut); err != nil {
				return nil, err
			}
			if opts.Depends, err = appendDepKeys(opts.Depends, args[7], rt.DepInOut); err != nil {
				return nil, err
			}
		}
		in := th.in
		err := th.ctx.SubmitTask(opts, func(c *rt.Context) error {
			tth := in.spawn(c)
			if in.gil != nil {
				in.gil.acquire()
				defer in.gil.release()
			}
			_, err := tth.Call(fn, nil, minipy.Position{})
			return err
		})
		if err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "task_wait", true, func(th *Thread, args []Value) (Value, error) {
		if err := th.ctx.TaskWait(); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "taskloop", true, func(th *Thread, args []Value) (Value, error) {
		// taskloop(fn, start, stop, step, grainsize, num_tasks,
		//          nogroup, if_set, if_val, final_set, final_val)
		if len(args) != 11 {
			return nil, typeErrorf(minipy.Position{}, "taskloop expects 11 arguments")
		}
		fn := args[0]
		s, ok1 := asInt(args[1])
		e, ok2 := asInt(args[2])
		st, ok3 := asInt(args[3])
		if !ok1 || !ok2 || !ok3 {
			return nil, typeErrorf(minipy.Position{}, "taskloop bounds must be integers")
		}
		if st == 0 {
			return nil, FaultStep.Err(minipy.Position{})
		}
		gs, ok4 := asInt(args[4])
		nt, ok5 := asInt(args[5])
		if !ok4 || !ok5 {
			return nil, typeErrorf(minipy.Position{}, "taskloop grainsize/num_tasks must be integers")
		}
		opts := rt.TaskLoopOpts{Grainsize: gs, NumTasks: nt, NoGroup: Truthy(args[6])}
		if Truthy(args[7]) {
			opts.IfSet, opts.If = true, Truthy(args[8])
		}
		if Truthy(args[9]) {
			opts.FinalSet, opts.Final = true, Truthy(args[10])
		}
		in := th.in
		b := rt.ForBounds(rt.Triplet{Start: s, End: e, Step: st})
		err := th.ctx.TaskLoop(b, opts, func(c *rt.Context, lo, hi int64) error {
			tth := in.spawn(c)
			if in.gil != nil {
				in.gil.acquire()
				defer in.gil.release()
			}
			_, err := tth.Call(fn, []Value{lo, hi}, minipy.Position{})
			return err
		})
		if err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "taskgroup_begin", false, func(th *Thread, args []Value) (Value, error) {
		th.ctx.TaskgroupBegin()
		return nil, nil
	})

	reg(gen, "taskgroup_end", true, func(th *Thread, args []Value) (Value, error) {
		if err := th.ctx.TaskgroupEnd(); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "ordered_begin", true, func(th *Thread, args []Value) (Value, error) {
		i, ok := asInt(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "ordered iteration must be int")
		}
		if err := th.ctx.OrderedBegin(i); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "ordered_end", false, func(th *Thread, args []Value) (Value, error) {
		if err := th.ctx.OrderedEnd(); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "declare_reduction", false, func(th *Thread, args []Value) (Value, error) {
		// declare_reduction(ident, combiner_fn, init_fn_or_None)
		if len(args) != 3 {
			return nil, typeErrorf(minipy.Position{}, "declare_reduction expects 3 arguments")
		}
		ident, ok := args[0].(string)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "reduction identifier must be a string")
		}
		combiner := args[1]
		initFn := args[2]
		in := th.in
		decl := &rt.DeclaredReduction{
			Ident: ident,
			Combine: func(out, inVal any) any {
				// Combiner errors surface at merge time via panic; the
				// runtime contains task/team panics.
				tth := in.MainThread()
				defer tth.Release()
				v, err := tth.Call(combiner, []Value{out, inVal}, minipy.Position{})
				if err != nil {
					panic(err)
				}
				return v
			},
		}
		if initFn != nil {
			decl.Identity = func() any {
				tth := in.MainThread()
				defer tth.Release()
				v, err := tth.Call(initFn, nil, minipy.Position{})
				if err != nil {
					panic(err)
				}
				return v
			}
		}
		if err := in.rt.RegisterReduction(decl); err != nil {
			return nil, runtimeErr(err)
		}
		return nil, nil
	})

	reg(gen, "reduce_init", false, func(th *Thread, args []Value) (Value, error) {
		ident, ok := args[0].(string)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "reduction identifier must be a string")
		}
		d, found := th.in.rt.LookupReduction(ident)
		if !found {
			return nil, nameErrorf(minipy.Position{}, "reduction %q is not declared", ident)
		}
		if d.Identity == nil {
			return nil, nil
		}
		return d.Identity(), nil
	})

	reg(gen, "reduce_combine", false, func(th *Thread, args []Value) (Value, error) {
		if len(args) != 3 {
			return nil, typeErrorf(minipy.Position{}, "reduce_combine expects 3 arguments")
		}
		ident, ok := args[0].(string)
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "reduction identifier must be a string")
		}
		d, found := th.in.rt.LookupReduction(ident)
		if !found {
			return nil, nameErrorf(minipy.Position{}, "reduction %q is not declared", ident)
		}
		th.ctx.ReductionMerge(ident)
		return d.Combine(args[1], args[2]), nil
	})

	for name, v := range user {
		gen[name] = v
	}

	in.modules["omp4py"] = &Module{Name: "omp4py", Attrs: user}
	// omp4py.pure is the explicit Python-runtime import of §III-F;
	// the layer is fixed per interpreter instance, so it aliases the
	// same module here.
	in.modules["omp4py.pure"] = in.modules["omp4py"]
	ompMod := &Module{Name: "__omp", Attrs: gen}
	in.modules["__omp"] = ompMod
	in.globals.DefineValue("__omp", ompMod)
	// The omp name itself is importable from omp4py and predefined
	// so decorated-but-untransformed code still parses and runs.
	in.globals.DefineValue("omp", user["omp"])
}

// WrapRuntimeError converts an internal/rt error into the
// interpreter's error domain, exactly as the __omp bridge entry
// points do (misuse → RuntimeError, budget kills passed through
// uncatchable). Exported for internal/compile's loop kernels, which
// call rt.Context methods without going through the bridge.
func WrapRuntimeError(err error) error { return runtimeErr(err) }

// runtimeErr converts runtime errors into MiniPy exceptions.
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
func appendDepKeys(deps []rt.Dep, v Value, kind rt.DepKind) ([]rt.Dep, error) {
	t, ok := v.(*Tuple)
	if !ok {
		return nil, typeErrorf(minipy.Position{}, "depend keys must be a tuple")
	}
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
