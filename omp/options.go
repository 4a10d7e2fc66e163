package omp

import "github.com/omp4go/omp4go/internal/rt"

// Option configures an OpenMP construct, mirroring directive clauses.
// One option type serves every construct — Parallel, For, Task — the
// way a clause applies to whichever directive carries it; options that
// a construct does not consume are ignored, as OMP4Py ignores clauses
// foreign to a directive's runtime entry point. WithIf, for example,
// serializes a Parallel region and makes a Task undeferred, and
// WithFinal only has an effect on Task.
type Option func(*options)

type options struct {
	numThreads int
	ifSet      bool
	ifVal      bool
	schedSet   bool
	sched      rt.Schedule
	nowait     bool
	ordered    bool
	finalSet   bool
	finalVal   bool
	depends    []rt.Dep
	grainsize  int64
	numTasks   int64
	nogroup    bool
	label      string
}

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithNumThreads is the num_threads clause (Parallel).
func WithNumThreads(n int) Option {
	return func(o *options) { o.numThreads = n }
}

// WithLabel names the parallel region for the time-attribution
// profiler: the region's per-state time breakdown accumulates under
// this label (ProfileBreakdown, the omp4go_time_seconds_total series)
// instead of the shared default bucket. MiniPy-lowered regions are
// labeled automatically with their directive's source line.
func WithLabel(name string) Option {
	return func(o *options) { o.label = name }
}

// WithIf is the if clause: on Parallel, a false cond serializes the
// region (team of one); on Task, a false cond makes the task
// undeferred, running immediately on the encountering thread.
func WithIf(cond bool) Option {
	return func(o *options) { o.ifSet, o.ifVal = true, cond }
}

// WithFinal is the final clause (Task): descendants of a final task
// are included — executed inline instead of deferred.
func WithFinal(cond bool) Option {
	return func(o *options) { o.finalSet, o.finalVal = true, cond }
}

// WithDepend is the depend clause (Task, TaskLoop): the task is held
// back until every predecessor implied by its dependence records has
// completed. Build the records with In, Out and InOut; keys are
// compared by Go equality, so use values (strings, ints, small
// structs) that identify the storage the task reads or writes.
func WithDepend(deps ...Dep) Option {
	return func(o *options) { o.depends = append(o.depends, deps...) }
}

// WithGrainsize is the taskloop grainsize clause: chunks carry at
// least n iterations. Mutually exclusive with WithNumTasks.
func WithGrainsize(n int) Option {
	return func(o *options) { o.grainsize = int64(n) }
}

// WithNumTasks is the taskloop num_tasks clause: the iteration space
// splits into exactly n chunk tasks. Mutually exclusive with
// WithGrainsize.
func WithNumTasks(n int) Option {
	return func(o *options) { o.numTasks = int64(n) }
}

// WithNoGroup is the taskloop nogroup clause: the construct skips its
// implicit taskgroup, so completion is observed by the next TaskWait
// or barrier instead of by TaskLoop returning.
func WithNoGroup() Option {
	return func(o *options) { o.nogroup = true }
}

// WithSched is the schedule clause (For): pass a Schedule built with
// Static, Dynamic, Guided, RuntimeSched or AutoSched. Chunk 0 selects
// the policy default.
func WithSched(s Schedule) Option {
	return func(o *options) {
		o.schedSet = true
		o.sched = rt.Schedule{Kind: s.Kind, Chunk: int64(s.Chunk)}
	}
}

// WithNoWait is the nowait clause: the worksharing construct skips
// its implicit barrier.
func WithNoWait() Option {
	return func(o *options) { o.nowait = true }
}

// WithOrdered is the ordered clause, enabling tc.Ordered inside the
// loop.
func WithOrdered() Option {
	return func(o *options) { o.ordered = true }
}
