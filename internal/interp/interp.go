package interp

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
)

// Options configure an interpreter instance — the knobs that select
// which CPython the interpreter stands in for.
type Options struct {
	// GIL serializes bytecode execution with a global lock, modelling
	// a GIL-enabled CPython: threads exist but only one interprets at
	// a time. Default false (free-threaded, the paper's setting).
	GIL bool
	// GILCheckInterval is how many interpreter steps a thread runs
	// before offering the GIL to others (sys.setswitchinterval's
	// spiritual cousin). 0 means the default of 100.
	GILCheckInterval int
	// ContendedAlloc routes every boxed allocation through a shared
	// atomic counter, modelling the contended reference-count and
	// allocator paths that cap free-threaded CPython's scalability
	// (§IV-A). On for figure reproduction; off as an ablation.
	ContendedAlloc bool
	// Stdout receives print() output; defaults to os.Stdout.
	Stdout io.Writer
	// Layer selects the OpenMP runtime flavour: LayerMutex is the
	// paper's Python runtime (Pure mode), LayerAtomic the cruntime
	// (Hybrid and compiled modes).
	Layer rt.Layer
	// Getenv supplies OMP_* environment variables (nil = os.Getenv).
	Getenv func(string) string
}

// Interp is one MiniPy interpreter instance with its module globals
// and its OpenMP runtime.
type Interp struct {
	opts    Options
	globals *Env
	rt      *rt.Runtime
	gil     *gil
	allocs  atomic.Int64
	stdout  io.Writer
	outMu   sync.Mutex

	// budget is the armed execution budget (nil = unlimited); see
	// budget.go. Atomic so the serving layer can arm it per run while
	// worker threads are checking it.
	budget atomic.Pointer[budgetState]

	scopeMu sync.Mutex
	scopes  map[*minipy.FuncDef]*minipy.ScopeInfo

	modules map[string]*Module

	compileHook func(fd *minipy.FuncDef, fn *Function)
}

// New creates an interpreter.
func New(opts Options) *Interp {
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	in := &Interp{
		opts:    opts,
		globals: NewGlobalEnv(),
		rt:      rt.NewWithEnv(opts.Layer, opts.Getenv),
		stdout:  opts.Stdout,
		scopes:  make(map[*minipy.FuncDef]*minipy.ScopeInfo),
		modules: make(map[string]*Module),
	}
	if opts.GIL {
		interval := opts.GILCheckInterval
		if interval <= 0 {
			interval = 100
		}
		in.gil = newGIL(interval)
	}
	in.installBuiltins()
	in.installModules()
	return in
}

// Runtime exposes the interpreter's OpenMP runtime.
func (in *Interp) Runtime() *rt.Runtime { return in.rt }

// Globals exposes the module-level environment.
func (in *Interp) Globals() *Env { return in.globals }

// AllocCount returns the number of accounted allocations (tests and
// the contention ablation read it).
func (in *Interp) AllocCount() int64 { return in.allocs.Load() }

// Thread is the per-goroutine execution state: the MiniPy equivalent
// of a CPython thread state. It carries the OpenMP context so
// omp4py runtime builtins know their team.
type Thread struct {
	in        *Interp
	ctx       *rt.Context
	ops       int
	budgetOps int // steps since the last budget charge (see tick)

	// Per-thread stacks of in-flight worksharing construct handles
	// (the construct part of the paper's per-thread task stack).
	singles  []*rt.Single
	sections []*rt.Sections
}

// MainThread creates the initial thread of the program.
func (in *Interp) MainThread() *Thread {
	th := &Thread{in: in, ctx: in.rt.NewContext()}
	if in.gil != nil {
		in.gil.acquire()
	}
	return th
}

// Release returns the thread's GIL (call when the thread finishes).
func (th *Thread) Release() {
	if th.in.gil != nil {
		th.in.gil.release()
	}
}

// Interp returns the owning interpreter.
func (th *Thread) Interp() *Interp { return th.in }

// Ctx returns the thread's OpenMP context.
func (th *Thread) Ctx() *rt.Context { return th.ctx }

// spawn creates the thread state for a team member created by
// parallel_run.
func (in *Interp) spawn(ctx *rt.Context) *Thread {
	return &Thread{in: in, ctx: ctx}
}

// tick advances the interpreter step counter, yielding the GIL at the
// check interval and enforcing the execution budget when one is armed.
// pos is the source position charged for a budget violation.
func (th *Thread) tick(pos minipy.Position) error {
	th.ops++
	if th.in.gil != nil && th.ops%th.in.gil.interval == 0 {
		th.in.gil.yield()
	}
	if b := th.in.budget.Load(); b != nil {
		th.budgetOps++
		// Steps accumulate thread-locally and flush to the shared
		// counter every budgetStride steps; a sticky kill recorded by
		// any thread short-circuits the stride so the whole team dies
		// promptly.
		if th.budgetOps >= budgetStride || b.killed.Load() != nil {
			n := int64(th.budgetOps)
			th.budgetOps = 0
			return b.charge(n, pos)
		}
	}
	return nil
}

// account records a boxed allocation on the shared counter when the
// contention model is on, and against the execution budget when one
// bounds allocations.
func (th *Thread) account() {
	if th.in.opts.ContendedAlloc {
		th.in.allocs.Add(1)
	}
	if b := th.in.budget.Load(); b != nil && b.maxAllocs > 0 {
		// Overage is detected here but killed at the next tick: the
		// alloc sites have no error path, and a step is at most a
		// stride away.
		b.allocs.Add(1)
	}
}

// callBlocking invokes fn with the GIL dropped, the way CPython
// extensions wrap blocking calls.
func (th *Thread) callBlocking(fn func() error) error {
	if th.in.gil != nil {
		th.in.gil.release()
		defer th.in.gil.acquire()
	}
	return fn()
}

// RunModule executes a parsed module at top level and returns the
// module environment.
func (in *Interp) RunModule(mod *minipy.Module) error {
	// The scope cache is for a def executed over and over within a run
	// (functions carry their Scope). Keeping it across runs would hold
	// the AST of every module a long-lived session ever ran.
	in.scopeMu.Lock()
	clear(in.scopes)
	in.scopeMu.Unlock()
	th := in.MainThread()
	defer th.Release()
	return th.execBlock(in.globals, in.globals, mod.Body)
}

// RunSource parses and executes source.
func (in *Interp) RunSource(src, file string) error {
	mod, err := minipy.Parse(src, file)
	if err != nil {
		return err
	}
	return in.RunModule(mod)
}

// CallFunction invokes a MiniPy function value with the given
// arguments from Go.
func (in *Interp) CallFunction(fnName string, args ...Value) (Value, error) {
	cell, ok := in.globals.Resolve(fnName)
	if !ok {
		return nil, nameErrorf(minipy.Position{}, "name %q is not defined", fnName)
	}
	v, _ := cell.Get()
	th := in.MainThread()
	defer th.Release()
	return th.Call(v, args, minipy.Position{})
}

// scopeOf returns (computing and caching) the scope info of a
// function definition.
func (in *Interp) scopeOf(fd *minipy.FuncDef) *minipy.ScopeInfo {
	in.scopeMu.Lock()
	defer in.scopeMu.Unlock()
	if s, ok := in.scopes[fd]; ok {
		return s
	}
	s := minipy.AnalyzeScope(fd.Params, fd.Body)
	in.scopes[fd] = s
	return s
}

// printTo writes print() output under the output lock so parallel
// prints do not interleave bytes.
func (in *Interp) printTo(s string) {
	in.outMu.Lock()
	fmt.Fprint(in.stdout, s)
	in.outMu.Unlock()
}

// gil is the global interpreter lock model.
type gil struct {
	mu       sync.Mutex
	interval int
}

func newGIL(interval int) *gil { return &gil{interval: interval} }

func (g *gil) acquire() { g.mu.Lock() }
func (g *gil) release() { g.mu.Unlock() }

// yield offers the GIL to other threads.
func (g *gil) yield() {
	g.mu.Unlock()
	g.mu.Lock()
}
