package rt

import (
	stdctx "context"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/ompt"
	"github.com/omp4go/omp4go/internal/prof"
)

// Runtime is one OpenMP runtime instance. OMP4Py instantiates the
// same logic twice (pure-Python runtime and Cython cruntime); here a
// Runtime is parameterized by its Layer instead. Instances are fully
// independent: contexts from one runtime are treated as foreign
// initial threads by another, exactly as in the paper.
type Runtime struct {
	layer Layer
	icv   icvSet

	criticalMu sync.Mutex
	criticals  map[string]*sync.Mutex

	// atomicCells stripes locks for the atomic construct; cells are
	// selected by hashing the updated location's identity.
	atomicCells [64]sync.Mutex

	declRedMu sync.Mutex
	declRed   map[string]*DeclaredReduction

	epoch time.Time

	// tool is the attached OMPT-style observability tool; nil means
	// tracing disabled. The pointer is atomic so SetTool may run while
	// regions are in flight (hook sites load it once per hook);
	// envTracer/traceFile are set when OMP4GO_TRACE activated tracing
	// through the environment.
	tool      atomic.Pointer[toolBox]
	envTracer *ompt.Tracer
	traceFile string

	// metrics is the always-on counter/histogram registry: updates are
	// striped per thread id and merged only on snapshot, so hot paths
	// pay one uncontended atomic add per event (internal/metrics).
	metrics *metrics.Registry

	// forkICV caches the ICVs Parallel needs to size a team, refreshed
	// by the (rare) setters. Reading it is one atomic pointer load,
	// keeping the icv mutex off the region fork path.
	forkICV atomic.Pointer[forkICVs]

	// obs is the live-introspection state: non-nil once a metrics
	// endpoint or watchdog wants to see in-flight regions. Hot paths
	// gate the extra bookkeeping (wait markers, pprof labels, region
	// registry) on a single atomic load of this pointer.
	obs atomic.Pointer[obsState]

	// prof is the time-attribution profiler (internal/prof), on by
	// default (OMP4GO_PROFILE=off disables it). Like obs and tool it
	// is an atomic gate: hot paths pay one pointer load when it is
	// off, and unlabeled serialized (1-thread) regions skip the
	// member clock stamps entirely so the fork fast path keeps its
	// overhead bar.
	prof atomic.Pointer[prof.Profiler]

	// flight is the flight recorder (flight.go); nil unless enabled
	// via OMP4GO_FLIGHT, EnableFlight, or the execution service.
	flight atomic.Pointer[FlightRecorder]

	// wd is the stall watchdog (watchdog.go); envServer the metrics
	// endpoint activated by OMP4GO_METRICS. Both are rare-path state
	// guarded by wdMu.
	wdMu      sync.Mutex
	wd        *watchdog
	envServer *MetricsServer

	// gtidSeq hands out per-context global trace thread ids;
	// regionSeq numbers parallel regions; taskSeq numbers explicit
	// tasks and tgSeq taskgroup regions (both assigned only while a
	// tool is attached).
	gtidSeq   atomic.Int64
	regionSeq atomic.Int64
	taskSeq   atomic.Int64
	tgSeq     atomic.Int64

	// taskSched selects the team task scheduler: work-stealing
	// deques by default, the paper's shared list queue when
	// OMP4GO_TASK_SCHED=list (differential testing).
	taskSched schedMode

	// pool holds the persistent worker goroutines Parallel dispatches
	// region bodies to (pool.go).
	pool *workerPool

	// teamCache recycles Team objects (and with them the scheduler's
	// per-thread deques) between same-size regions.
	teamCacheMu sync.Mutex
	teamCache   map[int][]*Team
}

// maxCachedTeams bounds the recycled teams kept per team size; nested
// parallelism can hold several same-size teams live at once.
const maxCachedTeams = 8

// New returns a runtime using the given synchronization layer with
// ICVs initialized from the OMP_* environment variables.
func New(layer Layer) *Runtime {
	return NewWithEnv(layer, nil)
}

// NewWithEnv is New with an explicit environment lookup (tests use a
// fake; nil means os.Getenv).
func NewWithEnv(layer Layer, getenv func(string) string) *Runtime {
	r := &Runtime{
		layer:     layer,
		icv:       defaultICVs(),
		criticals: make(map[string]*sync.Mutex),
		declRed:   make(map[string]*DeclaredReduction),
		epoch:     time.Now(),
		metrics:   metrics.New(),
	}
	r.icv.loadEnv(getenv)
	r.refreshForkICV()
	r.taskSched = parseSchedMode(r.icv.taskSched)
	if r.icv.profileMode != "off" {
		r.prof.Store(prof.New())
	}
	r.pool = newWorkerPool(r)
	r.teamCache = make(map[int][]*Team)
	if r.icv.displayEnv != "" {
		r.icv.display(displayEnvOut)
	}
	if r.icv.traceFile != "" {
		// OMP4GO_TRACE=<file> activates the built-in tracer at
		// runtime init, mirroring how OMP_TOOL attaches an OMPT tool;
		// FlushTrace writes the file when the program is done.
		r.traceFile = r.icv.traceFile
		r.envTracer = ompt.NewTracer(0)
		r.SetTool(r.envTracer)
	}
	if r.icv.watchdog > 0 {
		// OMP4GO_WATCHDOG=<duration> arms the stall watchdog at init.
		r.StartWatchdog(r.icv.watchdog)
	}
	if dir := r.icv.flightDir; dir != "" {
		// OMP4GO_FLIGHT=<dir> arms the flight recorder at init. Like
		// OMP4GO_METRICS, a failure (unwritable directory) is reported
		// but never takes the program down.
		if _, err := r.EnableFlight(dir); err != nil {
			fmt.Fprintf(os.Stderr, "omp4go: OMP4GO_FLIGHT: %v\n", err)
		}
	}
	if addr := r.icv.metricsAddr; addr != "" {
		// OMP4GO_METRICS=<addr> serves /metrics and /debug/omp for the
		// runtime's lifetime. A bind failure is reported but does not
		// fail construction: observability must never take the
		// program down.
		if srv, err := r.ServeMetrics(addr); err != nil {
			fmt.Fprintf(os.Stderr, "omp4go: OMP4GO_METRICS: %v\n", err)
		} else {
			r.envServer = srv
		}
	}
	return r
}

// Layer reports the synchronization layer of this runtime.
func (r *Runtime) Layer() Layer { return r.layer }

// MetricsSnapshot returns a merged point-in-time view of the runtime's
// always-on metrics.
func (r *Runtime) MetricsSnapshot() *metrics.Snapshot { return r.metrics.Snapshot() }

// Metrics exposes the runtime's live registry so adjacent subsystems
// (the MPI fabric's Comm.AttachMetrics) can land their counters on
// this runtime's /metrics endpoint.
func (r *Runtime) Metrics() *metrics.Registry { return r.metrics }

// Shutdown retires the runtime's parked pool workers and stops the
// environment-activated observability services (watchdog, metrics
// endpoint). It is optional — idle workers retire on their own after
// workerIdleTimeout — but gives deterministic teardown for tests and
// short-lived runtimes. Parallel remains usable afterwards, falling
// back to spawning goroutines per region.
func (r *Runtime) Shutdown() {
	r.StopWatchdog()
	if fr := r.flight.Swap(nil); fr != nil {
		fr.stopSampler()
	}
	r.wdMu.Lock()
	srv := r.envServer
	r.envServer = nil
	r.wdMu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	r.pool.shutdownAll()
}

// takeTeam returns a recycled team of the given size or builds a new
// one.
func (r *Runtime) takeTeam(size int) *Team {
	r.teamCacheMu.Lock()
	if list := r.teamCache[size]; len(list) > 0 {
		t := list[len(list)-1]
		list[len(list)-1] = nil
		r.teamCache[size] = list[:len(list)-1]
		r.teamCacheMu.Unlock()
		t.reset()
		return t
	}
	r.teamCacheMu.Unlock()
	return newTeam(r, nil, size)
}

// putTeam recycles a team whose region joined cleanly. A broken team
// (or one with tasks unaccounted for) may hold abandoned tasks in its
// deques and is left for the garbage collector instead.
func (r *Runtime) putTeam(t *Team) {
	if t.broken.Load() != 0 || t.outstanding.Load() != 0 {
		return
	}
	r.teamCacheMu.Lock()
	if len(r.teamCache[t.size]) < maxCachedTeams {
		r.teamCache[t.size] = append(r.teamCache[t.size], t)
	}
	r.teamCacheMu.Unlock()
}

// reset prepares a recycled team for its next region. Member contexts
// are overwritten by Parallel; the scheduler keeps its deques (empty
// after a clean join) and the region table is replaced because its
// entries are keyed by per-thread construct sequence numbers that
// restart at zero with the fresh contexts.
func (t *Team) reset() {
	t.regionID = int32(t.rt.regionSeq.Add(1))
	t.arrivals.Store(0)
	t.broken.Store(0)
	t.outstanding.Store(0)
	t.depStalled.Store(0)
	// t.regions is kept: a cleanly-joined region leaves the table
	// empty (every worksharing region is dropped when its last thread
	// leaves — regionleak_test.go holds this invariant), so reusing
	// it is safe even though wsIndex keys restart per region.
	t.taskErrs = nil
	t.sched.reset()
}

// Context is the per-thread OpenMP execution context: the task stack
// of the paper's §III-C. CPython stores it in threading.local /
// C thread_local storage; Go has no TLS, so contexts are threaded
// explicitly through every runtime call.
type Context struct {
	rt     *Runtime
	team   *Team
	parent *Context // encountering thread's context, nil for initial threads
	num    int      // thread number within the team

	level       int // nesting depth of parallel regions (incl. serialized)
	activeLevel int // nesting depth counting only teams with size > 1

	curTask *task      // innermost task (implicit or explicit)
	curTG   *taskgroup // innermost taskgroup region (depend.go), nil outside any

	wsIndex      int64 // worksharing constructs encountered in this region
	wsDepth      int   // >0 while inside a worksharing construct body
	barrierEpoch int64 // barriers passed in this region
	curLoop      *LoopBounds

	// gtid is the global trace thread id (unique per context across
	// all teams); critT0 stacks critical-section entry times. Both
	// serve the observability subsystem only.
	gtid   int32
	critT0 []int64

	// Profiler bookkeeping, owner-thread only (plain fields): profT0
	// is the member's region entry stamp, profWaitNS accumulates
	// every nanosecond the wait sites attributed to a non-compute
	// state, so compute = (now - profT0) - profWaitNS at region end.
	// kernelT0 is the running compiled-kernel entry stamp (0 = none).
	profT0     int64
	profWaitNS int64
	kernelT0   int64

	// waitKind/waitSince mark what synchronization point this thread
	// is blocked in (waitNone when running). Written by the owning
	// thread only while introspection is enabled (r.obs non-nil), read
	// by the watchdog sampler and the /debug/omp handler — atomics
	// make the cross-goroutine reads race-free. waitDetail names what
	// the thread waits for (a taskgroup, unresolved predecessors).
	waitKind   atomic.Int32
	waitSince  atomic.Int64
	waitDetail atomic.Pointer[string]
}

// NewContext creates the context for an initial thread: a thread that
// exists outside any OpenMP-created team. It is implicitly part of a
// single-thread parallel team consisting only of itself.
func (r *Runtime) NewContext() *Context {
	ctx := &Context{rt: r, gtid: int32(r.gtidSeq.Add(1) - 1)}
	team := newTeam(r, nil, 1)
	ctx.team = team
	ctx.curTask = newTask(r.layer, nil, nil, false)
	team.members[0] = ctx
	return ctx
}

// Runtime returns the runtime that owns this context.
func (c *Context) Runtime() *Runtime { return c.rt }

// ThreadNum returns the thread number within the current team.
func (c *Context) ThreadNum() int { return c.num }

// TeamSize returns the size of the current team.
func (c *Context) TeamSize() int { return c.team.size }

// Team is a thread team created by a parallel directive.
type Team struct {
	rt    *Runtime
	layer Layer
	size  int

	members []*Context

	// wake is the team-wide wake-up channel used by barriers,
	// taskwait, ordered sections and copyprivate. Wakers broadcast
	// under the mutex so waiters cannot miss a state change.
	wakeMu   sync.Mutex
	wakeCond *sync.Cond

	sched       taskScheduler
	outstanding Counter // explicit tasks submitted but not yet completed

	arrivals Counter // monotonically increasing barrier arrival count

	// release is the timestamp of the latest barrier-epoch completion
	// (written by the one arrival that completes an epoch). Waiters
	// use it as their wait-end time for the always-on wait metrics —
	// one clock read per waiting thread instead of two. A waiter that
	// races the store (sees the epoch complete before the stamp
	// lands) falls back to reading the clock itself.
	release atomic.Int64

	regions *regionTable

	// broken is set when a team thread dies from a panic; barriers
	// and waits abort instead of deadlocking on the missing thread.
	broken Counter

	taskErrMu sync.Mutex
	taskErrs  []error

	// errbuf backs the per-region member error slice; recycled with
	// the team so joining a region costs no allocation.
	errbuf []error

	// depStalled gauges the team's dependence-stalled tasks (created
	// but gated on unresolved predecessors). Wait loops consult it to
	// classify their idle time: sleeping while it is nonzero is a
	// dependence stall, not generic barrier/steal idling.
	depStalled atomic.Int64

	// Per-region fork state. Keeping it on the (recycled) team rather
	// than in Parallel's locals makes forking a region allocation-free
	// in pool mode: locals captured by a dispatch closure would each
	// cost a heap cell per region.
	body    func(*Context) error // region body for this fork
	tool    ompt.Tool            // tool snapshot for this fork
	labeled bool                 // members run under pprof labels (obs on)
	label   string               // region label (profiler bucket key)
	// profBucket is the profiler bucket for this fork; nil disables
	// member attribution (profiler off, or an unlabeled serialized
	// region — not worth two clock stamps on the 1T fast path).
	profBucket *prof.Bucket
	wg         sync.WaitGroup // join group; reused after each Wait
	panicMu    sync.Mutex
	panics     map[int]any // allocated on first member panic only

	// regionID numbers the parallel region this team executes
	// (observability subsystem).
	regionID int32
}

// memberMain is one team member's whole region: the body, error and
// panic collection, and the closing implicit barrier. Dispatched as a
// (Team, Context) pair — never as a closure — on the region hot path.
func (t *Team) memberMain(member *Context) {
	if t.labeled {
		// Goroutine labels make pool workers and spawned members
		// attributable in pprof profiles while introspection is on:
		// omp_region is the region id, omp_gtid the member's stable
		// thread id. pprof.Do restores the previous labels on return,
		// so the master's caller keeps its own labels.
		labels := pprof.Labels(
			"omp_region", itoa(int(t.regionID)),
			"omp_gtid", itoa(int(member.gtid)))
		pprof.Do(stdctx.Background(), labels, func(stdctx.Context) { t.runMember(member) })
		return
	}
	t.runMember(member)
}

func (t *Team) runMember(member *Context) {
	pb := t.profBucket
	if pb != nil {
		member.profWaitNS = 0
		member.profT0 = ompt.Now()
	}
	tool := t.tool
	if tool != nil {
		member.emitTo(tool, ompt.EvImplicitTaskBegin, int64(t.regionID), int64(member.num), 0, "")
		// The deferred end event also fires when the member dies
		// from a panic, keeping every begin paired in the trace.
		defer member.emitTo(tool, ompt.EvImplicitTaskEnd, int64(t.regionID), int64(member.num), 0, "")
	}
	defer func() {
		if p := recover(); p != nil {
			t.panicMu.Lock()
			if t.panics == nil {
				t.panics = make(map[int]any)
			}
			t.panics[member.num] = p
			t.panicMu.Unlock()
			// Mark the team broken so surviving threads abandon
			// barriers instead of waiting for the dead thread.
			t.broken.Store(1)
			t.wakeAll()
		}
	}()
	err := t.body(member)
	t.errbuf[member.num] = err
	if err != nil {
		// An error escaping the region body means this thread
		// abandons its remaining synchronization points (the
		// OpenMP rule is that exceptions must be handled inside
		// the region); mark the team broken so peers blocked on
		// this thread — barriers, copyprivate — abort instead of
		// deadlocking.
		t.broken.Store(1)
		t.wakeAll()
	}
	// Implicit barrier at region end: drains outstanding tasks.
	// Barrier aborts caused by another thread's failure are not
	// recorded: the causing thread already carries the error.
	if berr := t.Barrier(member); berr != nil && err == nil &&
		t.broken.Load() == 0 {
		t.errbuf[member.num] = berr
	}
	// The closing barrier drained every explicit task, so the errors
	// that climbed to this member's implicit task — failures no
	// taskwait/taskgroup-end consumed — are final; surface them once
	// at the region join. (On a broken team stragglers may still
	// deliver afterwards; their errors stay with the abandoned team,
	// whose join already reports the causing failure.)
	for _, e := range member.curTask.takeChildErrs() {
		t.recordTaskError(e)
	}
	if pb != nil {
		// Compute by subtraction: the member's whole wall time minus
		// everything the wait sites already attributed. The breakdown
		// sums to team wall time by construction. (A panicking member
		// unwinds past this — abnormal regions go unattributed.)
		if compute := ompt.Now() - member.profT0 - member.profWaitNS; compute > 0 {
			pb.Add(int32(member.num), prof.Compute, compute)
		}
	}
}

// spawnedMember runs a member on a freshly spawned goroutine (pool
// exhausted or disabled); pool workers run memberMain from their
// dispatch loop instead.
func (t *Team) spawnedMember(member *Context) {
	defer t.wg.Done()
	t.memberMain(member)
}

func newTeam(r *Runtime, master *Context, size int) *Team {
	t := &Team{
		regionID:    int32(r.regionSeq.Add(1)),
		rt:          r,
		layer:       r.layer,
		size:        size,
		members:     make([]*Context, size),
		sched:       newTaskScheduler(r.layer, size, r.taskSched),
		outstanding: NewCounter(r.layer),
		arrivals:    NewCounter(r.layer),
		regions:     newRegionTable(r.layer),
		broken:      NewCounter(r.layer),
		errbuf:      make([]error, size),
	}
	t.wakeCond = sync.NewCond(&t.wakeMu)
	_ = master
	return t
}

// wakeAll wakes every thread blocked on the team (barrier, taskwait,
// ordered, copyprivate). Broadcasting under the mutex pairs with
// waitFor's check-then-wait so no wake-up is lost.
func (t *Team) wakeAll() {
	t.wakeMu.Lock()
	t.wakeCond.Broadcast()
	t.wakeMu.Unlock()
}

// waitFor blocks until pred() holds. pred must be monotonic with
// respect to the wake events (every state change that can make it
// true is followed by wakeAll).
func (t *Team) waitFor(pred func() bool) {
	t.wakeMu.Lock()
	for !pred() {
		t.wakeCond.Wait()
	}
	t.wakeMu.Unlock()
}

// ParallelOpts carries the clauses of a parallel directive that the
// runtime itself consumes.
type ParallelOpts struct {
	// NumThreads is the num_threads clause; 0 means the nthreads ICV.
	NumThreads int
	// If is the value of the if clause; it only applies when IfSet.
	If    bool
	IfSet bool
	// Label names the region for time attribution (internal/prof):
	// MiniPy lowers the directive's source line ("L12"), native
	// callers use omp.WithLabel. Empty regions pool into the
	// unlabeled bucket.
	Label string
}

// Parallel executes body on a new thread team, implementing the
// parallel directive. The encountering thread becomes thread 0 of the
// new team (the master); the remaining team members run on fresh
// goroutines. An implicit task-draining barrier joins the team.
//
// Errors returned by body do not cross the region boundary on their
// own thread (the OpenMP rule); they are collected and returned as a
// single error from Parallel on the encountering thread. Panics in
// team threads are recovered and reported the same way.
func (r *Runtime) Parallel(ctx *Context, opts ParallelOpts, body func(*Context) error) error {
	if ctx.rt != r {
		return &MisuseError{Construct: "parallel", Msg: "context belongs to a different runtime"}
	}
	if ctx.wsDepth > 0 {
		return &MisuseError{Construct: "parallel",
			Msg: "parallel region may not be closely nested inside a worksharing construct without enclosing parallel"}
	}
	n := r.resolveTeamSize(ctx, opts)
	team := r.takeTeam(n)

	r.metrics.Inc(ctx.gtid, metrics.RegionsForked)
	// The tool is loaded once per region so a concurrent SetTool never
	// splits the region's paired events across two tools.
	tool := r.loadTool()
	var regionT0 int64
	if tool != nil {
		regionT0 = ompt.Now()
		ctx.emitTo(tool, ompt.EvParallelBegin, int64(team.regionID), int64(n), 0, "")
	}

	errs := team.errbuf[:n]
	for i := range errs {
		errs[i] = nil
	}
	// Fork state rides on the (recycled) team — see memberMain. The
	// writes happen before any dispatch, which provides the ordering.
	team.body = body
	team.tool = tool
	team.panics = nil
	team.label = opts.Label
	team.profBucket = nil
	if p := r.prof.Load(); p != nil && (n > 1 || opts.Label != "") {
		// Unlabeled 1-thread regions stay unprofiled: they have no
		// wait states to break down, and skipping them keeps the
		// serialized fork path free of clock reads (the PR 4 bar).
		team.profBucket = p.Bucket(opts.Label)
	}

	// Workers come from the persistent pool; it may come up short (cap
	// reached, nested demand, shutdown), in which case the remaining
	// members run on spawned goroutines.
	var workers []*poolWorker
	if n > 1 {
		workers = r.pool.acquire(n - 1)
	}

	// Setup pass: every member context is fully initialized before any
	// of them is dispatched. The split from dispatch matters for
	// introspection — registering the team between the passes means
	// the watchdog and /debug/omp only ever observe members whose
	// plain fields (num, gtid) are final, with the registry mutex
	// providing the happens-before edge.
	for i := 0; i < n; i++ {
		// A recycled team still holds its previous members: reuse the
		// Context and its implicit task in place of reallocating both
		// per region. Safe because teams are recycled only after a
		// clean join (every member back at its implicit task, no
		// outstanding children) and contexts are dead outside their
		// region by the OpenMP contract.
		member := team.members[i]
		if member == nil {
			member = &Context{rt: r, team: team, num: i}
			member.curTask = newTask(r.layer, nil, nil, false)
			team.members[i] = member
		} else {
			member.curTask.resetImplicit()
			member.wsIndex, member.wsDepth, member.barrierEpoch = 0, 0, 0
			member.curLoop = nil
			member.curTG = nil
			member.critT0 = member.critT0[:0]
		}
		member.parent = ctx
		member.level = ctx.level + 1
		member.activeLevel = ctx.activeLevel
		if n > 1 {
			member.activeLevel++
		}
		switch {
		case i == 0:
			// Master runs on the encountering goroutine.
			member.gtid = int32(r.gtidSeq.Add(1) - 1)
		case i-1 < len(workers):
			// Pool dispatch: the member inherits the worker's stable
			// gtid, so per-thread trace rings persist across regions.
			member.gtid = workers[i-1].gtid
		default:
			member.gtid = int32(r.gtidSeq.Add(1) - 1)
		}
	}

	obs := r.obs.Load()
	team.labeled = obs != nil
	if obs != nil {
		obs.register(team)
	}

	// Dispatch pass.
	team.wg.Add(n - 1) // every member but the master signals completion
	for i := 1; i < n; i++ {
		member := team.members[i]
		if i-1 < len(workers) {
			workers[i-1].slot.put(dispatch{t: team, m: member})
			continue
		}
		go team.spawnedMember(member)
	}
	team.memberMain(team.members[0])
	team.wg.Wait()
	// Borrowed slots go back in one batch: cheaper than per-worker
	// release locking, and still ordered before Parallel returns.
	r.pool.releaseAll(workers)
	if obs != nil {
		obs.unregister(team)
	}

	r.metrics.Inc(ctx.gtid, metrics.RegionsJoined)
	if tool != nil {
		ctx.emitTo(tool, ompt.EvParallelEnd, int64(team.regionID), int64(n), ompt.Now()-regionT0, "")
	}

	// Drop the region's references before the team is recycled (or
	// collected): body and tool are user values the runtime must not
	// retain past the join.
	team.body, team.tool = nil, nil

	if len(team.panics) > 0 {
		return &TeamPanic{Panics: team.panics}
	}
	// joinErrors runs before the team is recycled: errs aliases the
	// team's errbuf, which the next region borrowing this team will
	// overwrite.
	errs = append(errs, team.takeTaskErrors()...)
	err := joinErrors(errs)
	r.putTeam(team)
	return err
}

func joinErrors(errs []error) error {
	// Broken-team aborts are consequences, not causes: a thread that
	// bailed out of a barrier because another thread failed should
	// not mask that thread's actual error.
	var first error
	total := 0
	for _, e := range errs {
		if e == nil {
			continue
		}
		total++
		if _, secondary := e.(*brokenAbort); secondary {
			continue
		}
		if first == nil {
			first = e
		}
	}
	if total == 0 {
		return nil
	}
	if first == nil {
		// Every error is a broken abort (e.g. the causing thread
		// panicked and is reported separately).
		for _, e := range errs {
			if e != nil {
				first = e
				break
			}
		}
	}
	if total > 1 {
		return &teamError{first: first, extra: total - 1}
	}
	return first
}

type teamError struct {
	first error
	extra int
}

func (e *teamError) Error() string {
	return e.first.Error() + " (and " + itoa(e.extra) + " more team thread error(s))"
}

func (e *teamError) Unwrap() error { return e.first }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// forkICVs is the immutable snapshot of the team-sizing ICVs behind
// Runtime.forkICV. A fresh value is published on every change, so
// resolveTeamSize reads a consistent set with one atomic load.
type forkICVs struct {
	numThreads      int
	nested          bool
	maxActiveLevels int
	threadLimit     int
}

// refreshForkICV republishes the team-sizing ICV snapshot; every
// setter that touches one of its fields must call it after unlocking.
func (r *Runtime) refreshForkICV() {
	r.icv.mu.Lock()
	f := &forkICVs{
		numThreads:      r.icv.numThreads,
		nested:          r.icv.nested,
		maxActiveLevels: r.icv.maxActiveLevels,
		threadLimit:     r.icv.threadLimit,
	}
	r.icv.mu.Unlock()
	r.forkICV.Store(f)
}

func (r *Runtime) resolveTeamSize(ctx *Context, opts ParallelOpts) int {
	f := r.forkICV.Load()
	n := f.numThreads
	nested := f.nested
	maxActive := f.maxActiveLevels
	limit := f.threadLimit

	if opts.NumThreads > 0 {
		n = opts.NumThreads
	}
	if opts.IfSet && !opts.If {
		n = 1
	}
	if ctx.activeLevel >= 1 && !nested {
		n = 1 // nested region serialized unless omp_set_nested(true)
	}
	if ctx.activeLevel >= maxActive {
		n = 1
	}
	if n > limit {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Barrier implements the implicit barrier of a parallel region or
// worksharing construct: every thread of the team waits until all
// have arrived, consuming pending explicit tasks while waiting
// (§III-E of the paper). All explicit tasks generated in the region
// complete before any thread leaves.
func (t *Team) Barrier(ctx *Context) error {
	return t.barrier(ctx, ompt.BarrierImplicit)
}

// Barrier is the context-level entry point for the explicit barrier
// directive.
func (c *Context) Barrier() error { return c.team.barrier(c, ompt.BarrierExplicit) }

func (t *Team) barrier(ctx *Context, kind int64) error {
	if ctx.wsDepth > 0 {
		return &MisuseError{Construct: "barrier",
			Msg: "barrier may not appear inside a worksharing construct body"}
	}
	r := t.rt
	ctx.barrierEpoch++
	target := ctx.barrierEpoch * int64(t.size)
	tool := r.loadTool()
	obs := r.obs.Load()
	// Wait-time accounting: the barrier's wait is the time spent in
	// the barrier minus the time spent productively executing stolen
	// tasks while waiting.
	var t0, taskNS int64
	timed := tool != nil
	if tool != nil {
		t0 = ompt.Now()
		ctx.emitTo(tool, ompt.EvBarrierEnter, kind, ctx.barrierEpoch, 0, "")
	}
	// Only the arrival that completes the epoch can flip another
	// thread's wait predicate (the predicates are monotonic in
	// arrivals), so earlier arrivals skip the broadcast — one wake per
	// barrier instead of one per thread. The completing arrival also
	// accounts the passage for the whole team in one striped add
	// (barrier passages are counted at epoch completion — a barrier
	// abandoned by a broken team counts zero) and stamps the release
	// time waiters use as their wait-end clock.
	arrived := t.arrivals.Add(1)
	if arrived >= target {
		if arrived == target {
			r.metrics.Add(int32(ctx.num), metrics.Barriers, int64(t.size))
			if t.size > 1 {
				t.release.Store(ompt.Now())
			}
		}
		t.wakeAll()
	} else if !timed {
		// This thread will wait (or drain tasks): start the clock for
		// the always-on wait metrics. The fast path — last arrival,
		// nothing left to do — reads no clock at all.
		timed = true
		t0 = ompt.Now()
	}
	if obs != nil {
		ctx.waitSince.Store(ompt.Now())
		ctx.waitKind.Store(waitBarrier)
	}
	// Sleep classification for the profiler: time parked in waitFor is
	// a dependence stall when stalled tasks gate the queues, steal
	// idling when runnable work exists elsewhere, and plain barrier
	// waiting otherwise. Clock reads happen only around actual parks —
	// the fast path is untouched.
	pb := t.profBucket
	var depNS, stealNS int64
	err := func() error {
		for {
			if tk := t.claimTask(ctx); tk != nil {
				if timed {
					s := ompt.Now()
					t.runTask(ctx, tk)
					taskNS += ompt.Now() - s
				} else {
					t.runTask(ctx, tk)
				}
				continue
			}
			if t.broken.Load() != 0 {
				return newBrokenAbort("barrier")
			}
			if t.arrivals.Load() >= target && t.outstanding.Load() == 0 {
				return nil
			}
			var sleepT0 int64
			sleepState := prof.BarrierWait
			if pb != nil {
				sleepT0 = ompt.Now()
				if t.depStalled.Load() > 0 {
					sleepState = prof.DependStall
				} else if t.outstanding.Load() > 0 {
					sleepState = prof.StealIdle
				}
			}
			t.waitFor(func() bool {
				return t.sched.hasRunnable() || t.broken.Load() != 0 ||
					(t.arrivals.Load() >= target && t.outstanding.Load() == 0)
			})
			switch sleepState {
			case prof.DependStall:
				depNS += ompt.Now() - sleepT0
			case prof.StealIdle:
				stealNS += ompt.Now() - sleepT0
			}
		}
	}()
	if obs != nil {
		ctx.waitKind.Store(waitNone)
	}
	if timed {
		// With a tool attached the exit event wants precise timing;
		// the metrics-only path ends the wait at the completer's
		// release stamp instead of reading the clock again. A stale
		// stamp (the epoch completed but the store has not landed
		// yet, or the team aborted) falls back to the clock.
		var end int64
		if tool != nil {
			end = ompt.Now()
		} else if end = t.release.Load(); end < t0 {
			end = ompt.Now()
		}
		wait := end - t0 - taskNS
		if wait < 0 {
			wait = 0
		}
		if wait > 0 {
			// Striped by thread number, not gtid: the master's gtid is
			// fresh every region, which would walk cold stripe lines
			// in fork-join loops, while thread numbers are dense and
			// stable across recycled regions. Any stripe key is
			// correct — the adds stay atomic — this one keeps the
			// line warm. The histogram also carries the wait-time sum
			// (the omp4go_barrier_wait_ns_total counter mirrors it).
			r.metrics.Observe(int32(ctx.num), metrics.HistBarrierWait, wait)
			if pb != nil {
				// The park classification above splits the wait; the
				// unparked remainder (arrival skew, scan loops) is
				// barrier waiting. Clamp to the measured wait so the
				// breakdown never exceeds it.
				dep, steal := depNS, stealNS
				if dep > wait {
					dep, steal = wait, 0
				} else if dep+steal > wait {
					steal = wait - dep
				}
				if bw := wait - dep - steal; bw > 0 {
					pb.Add(int32(ctx.num), prof.BarrierWait, bw)
				}
				pb.Add(int32(ctx.num), prof.DependStall, dep)
				pb.Add(int32(ctx.num), prof.StealIdle, steal)
				ctx.profWaitNS += wait
			}
		}
		if tool != nil {
			ctx.emitTo(tool, ompt.EvBarrierExit, kind, ctx.barrierEpoch, wait, "")
		}
	} else if pb != nil && depNS+stealNS > 0 {
		// The epoch-completing arrival skips wait timing (no t0), but
		// with outstanding tasks it still drains the wait loop and can
		// park. Those parks were measured directly around waitFor —
		// attribute them so a gated dependence chain is never
		// misread as compute.
		pb.Add(int32(ctx.num), prof.DependStall, depNS)
		pb.Add(int32(ctx.num), prof.StealIdle, stealNS)
		ctx.profWaitNS += depNS + stealNS
	}
	return err
}
