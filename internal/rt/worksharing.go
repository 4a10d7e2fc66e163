package rt

import (
	"sync"

	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/ompt"
	"github.com/omp4go/omp4go/internal/prof"
)

// regionState is the team-shared state of one worksharing construct
// instance: the iteration/section counter driven by dynamic
// scheduling, the single-claim flag, the ordered cursor, and the
// copyprivate broadcast slot.
type regionState struct {
	iter     Counter // next unclaimed linear iteration / section id
	claim    Counter // single: 0 unclaimed, 1 claimed
	finished Counter // threads that completed the construct (for GC)
	ordNext  Counter // ordered: next linear iteration allowed to enter

	cpMu    sync.Mutex
	cpVal   any
	cpEvent Event
}

// regionTable matches the Nth worksharing construct encountered by
// each team thread to shared state. Threads arrive asynchronously
// (nowait lets them run ahead), so the table is keyed by per-thread
// construct sequence numbers. Creation is coordinated with a mutex in
// the mutex layer and with LoadOrStore (an atomic swap) in the atomic
// layer, mirroring the counter-creation strategies of §III-D.
type regionTable struct {
	layer Layer

	mu sync.Mutex
	m  map[int64]*regionState

	am sync.Map // atomic layer: map[int64]*regionState
}

func newRegionTable(l Layer) *regionTable {
	return &regionTable{layer: l, m: make(map[int64]*regionState)}
}

func (rt *regionTable) get(idx int64, l Layer) *regionState {
	if rt.layer == LayerAtomic {
		if v, ok := rt.am.Load(idx); ok {
			return v.(*regionState)
		}
		v, _ := rt.am.LoadOrStore(idx, newRegionState(l))
		return v.(*regionState)
	}
	rt.mu.Lock()
	s, ok := rt.m[idx]
	if !ok {
		s = newRegionState(l)
		rt.m[idx] = s
	}
	rt.mu.Unlock()
	return s
}

func (rt *regionTable) drop(idx int64) {
	if rt.layer == LayerAtomic {
		rt.am.Delete(idx)
		return
	}
	rt.mu.Lock()
	delete(rt.m, idx)
	rt.mu.Unlock()
}

func newRegionState(l Layer) *regionState {
	return &regionState{
		iter:     NewCounter(l),
		claim:    NewCounter(l),
		finished: NewCounter(l),
		ordNext:  NewCounter(l),
		cpEvent:  NewEvent(l),
	}
}

// enterRegion assigns the next worksharing region to this thread and
// returns its shared state.
func (c *Context) enterRegion() (*regionState, int64) {
	c.wsIndex++
	return c.team.regions.get(c.wsIndex, c.team.layer), c.wsIndex
}

// leaveRegion retires the thread from the region, dropping the shared
// state once the whole team has passed.
func (c *Context) leaveRegion(s *regionState, idx int64) {
	if s.finished.Add(1) == int64(c.team.size) {
		c.team.regions.drop(idx)
	}
}

// Triplet is one loop level's (start, end, step) iteration triplet,
// as produced from the range() call of the source loop.
type Triplet struct {
	Start, End, Step int64
}

// count returns the number of iterations of the triplet.
func (t Triplet) count() int64 {
	if t.Step == 0 {
		return 0
	}
	var n int64
	if t.Step > 0 {
		if t.End <= t.Start {
			return 0
		}
		n = (t.End - t.Start + t.Step - 1) / t.Step
	} else {
		if t.End >= t.Start {
			return 0
		}
		n = (t.Start - t.End + (-t.Step) - 1) / (-t.Step)
	}
	return n
}

// value maps a local index in [0, count) to the loop variable value.
func (t Triplet) value(i int64) int64 { return t.Start + i*t.Step }

// LoopBounds is the per-thread loop descriptor created by ForBounds
// and updated in place by ForNext — the __omp_bounds array of the
// generated code (Fig. 3). Each thread owns an independent copy; only
// the region's shared counter is coordinated between threads.
type LoopBounds struct {
	Triplets []Triplet
	Total    int64 // product of per-level counts (collapsed space)

	// Current chunk, in linear iteration space: [Lo, Hi).
	Lo, Hi int64

	counts []int64 // per-level iteration counts (collapse unraveling)

	sched   Schedule
	tnum    int
	tsize   int
	nowait  bool
	ordered bool

	// static scheduling cursor
	next   int64
	stride int64
	limit  int64 // static no-chunk: end of this thread's block

	region *regionState
	regIdx int64
	team   *Team
	ctx    *Context
	last   bool
	inited bool

	// Observability: the chunk claimed by the previous ForNext is
	// still executing when the next ForNext runs, so its completion
	// event (with execution time) is emitted one call late.
	chunkOpen        bool
	chunkLo, chunkHi int64
	chunkT0          int64
}

// ForBounds builds a loop descriptor from one triplet per collapsed
// loop level (the for_bounds call of the generated code).
func ForBounds(triplets ...Triplet) *LoopBounds {
	b := &LoopBounds{Triplets: triplets}
	b.Total = 1
	b.counts = make([]int64, len(triplets))
	for i, t := range triplets {
		b.counts[i] = t.count()
		b.Total *= b.counts[i]
	}
	if len(triplets) == 0 {
		b.Total = 0
	}
	return b
}

// ForOpts carries the loop clauses the runtime consumes.
type ForOpts struct {
	Sched    Schedule
	SchedSet bool
	Ordered  bool
	NoWait   bool
}

// ForInit prepares the parallel execution of a loop: it creates the
// worksharing region, resolves the scheduling policy, and positions
// this thread's chunk cursor (the for_init call of Fig. 3).
func (c *Context) ForInit(b *LoopBounds, opts ForOpts) error {
	if c.wsDepth > 0 {
		return &MisuseError{Construct: "for",
			Msg: "worksharing construct may not be closely nested inside another worksharing construct"}
	}
	// Resolve and validate the clauses before touching any shared
	// state: an error return must not have entered the worksharing
	// region, or the regionState would leak (its finished counter
	// could never reach team size) and wsIndex would advance without
	// a matching leaveRegion.
	sched := opts.Sched
	if !opts.SchedSet {
		sched = Schedule{Kind: directive.ScheduleStatic}
	}
	switch sched.Kind {
	case directive.ScheduleAuto:
		c.rt.icv.mu.Lock()
		sched = c.rt.icv.defSched
		c.rt.icv.mu.Unlock()
	case directive.ScheduleRuntime:
		c.rt.icv.mu.Lock()
		sched = c.rt.icv.runSched
		c.rt.icv.mu.Unlock()
	}
	if sched.Chunk < 0 {
		return &MisuseError{Construct: "for", Msg: "chunk size must be positive"}
	}

	b.ctx = c
	b.team = c.team
	b.tnum = c.num
	b.tsize = c.team.size
	b.nowait = opts.NoWait
	b.ordered = opts.Ordered
	b.region, b.regIdx = c.enterRegion()
	b.sched = sched

	switch sched.Kind {
	case directive.ScheduleStatic:
		if sched.Chunk == 0 {
			// Block partition: one contiguous chunk per thread.
			base := b.Total / int64(b.tsize)
			rem := b.Total % int64(b.tsize)
			lo := int64(b.tnum)*base + min64(int64(b.tnum), rem)
			sz := base
			if int64(b.tnum) < rem {
				sz++
			}
			b.next = lo
			b.limit = lo + sz
			b.stride = 0
		} else {
			b.next = int64(b.tnum) * sched.Chunk
			b.stride = int64(b.tsize) * sched.Chunk
			b.limit = b.Total
		}
	case directive.ScheduleDynamic, directive.ScheduleGuided:
		if b.sched.Chunk == 0 {
			b.sched.Chunk = 1
		}
	}
	b.inited = true
	c.wsDepth++
	c.curLoop = b
	if c.rt.loadTool() != nil {
		c.emit(ompt.EvLoopBegin, b.Total, b.sched.Chunk, 0, b.sched.Kind.String())
	}
	return nil
}

// ForNext claims the next chunk for this thread, updating Lo and Hi
// in linear space. It returns false when the thread's share of the
// iteration space is exhausted (the for_next call of Fig. 3).
func (b *LoopBounds) ForNext() bool {
	claimed := b.claimNext()
	if b.ctx != nil {
		if claimed {
			m := b.ctx.rt.metrics
			m.Inc(b.ctx.gtid, metrics.LoopChunks)
			m.Add(b.ctx.gtid, metrics.LoopIterations, b.Hi-b.Lo)
		}
		if b.ctx.rt.loadTool() != nil {
			b.traceChunk(claimed)
		}
	}
	return claimed
}

// traceChunk closes the previous chunk's completion event (its body
// just finished executing) and opens the newly claimed one.
func (b *LoopBounds) traceChunk(claimed bool) {
	now := ompt.Now()
	if b.chunkOpen {
		b.chunkOpen = false
		b.ctx.emit(ompt.EvLoopChunk, b.chunkLo, b.chunkHi, now-b.chunkT0, "")
	}
	if claimed {
		b.chunkOpen = true
		b.chunkLo, b.chunkHi = b.Lo, b.Hi
		b.chunkT0 = now
	}
}

// claimNext is the scheduling core of ForNext, free of tracing.
func (b *LoopBounds) claimNext() bool {
	if !b.inited {
		return false
	}
	switch b.sched.Kind {
	case directive.ScheduleStatic:
		if b.sched.Chunk == 0 {
			if b.next >= b.limit {
				return false
			}
			b.Lo, b.Hi = b.next, b.limit
			b.next = b.limit
		} else {
			if b.next >= b.Total {
				return false
			}
			b.Lo = b.next
			b.Hi = min64(b.next+b.sched.Chunk, b.Total)
			b.next += b.stride
		}
	case directive.ScheduleDynamic:
		newv := b.region.iter.Add(b.sched.Chunk)
		old := newv - b.sched.Chunk
		if old >= b.Total {
			return false
		}
		b.Lo = old
		b.Hi = min64(old+b.sched.Chunk, b.Total)
	case directive.ScheduleGuided:
		for {
			cur := b.region.iter.Load()
			remaining := b.Total - cur
			if remaining <= 0 {
				return false
			}
			// Decreasing chunks: the remaining work divided among
			// the team (remaining/tsize, libgomp's guided formula),
			// but never below the minimum chunk.
			sz := remaining / int64(b.tsize)
			if sz < b.sched.Chunk {
				sz = b.sched.Chunk
			}
			if sz > remaining {
				sz = remaining
			}
			if b.region.iter.CompareAndSwap(cur, cur+sz) {
				b.Lo, b.Hi = cur, cur+sz
				break
			}
		}
	default:
		return false
	}
	b.last = b.Hi == b.Total
	return true
}

// IsLast reports whether the chunk most recently returned by ForNext
// contains the sequentially last iteration (lastprivate support).
func (b *LoopBounds) IsLast() bool { return b.last }

// LoValue and HiValue translate the current linear chunk into loop
// variable values for single (non-collapsed) loops, so the generated
// code can run "for i in range(b.LoValue(), b.HiValue(), step)".
func (b *LoopBounds) LoValue() int64 { return b.Triplets[0].value(b.Lo) }

// HiValue returns the exclusive end value of the current chunk.
func (b *LoopBounds) HiValue() int64 { return b.Triplets[0].value(b.Hi) }

// Unravel maps a linear iteration index to the per-level loop
// variable values of a collapsed loop nest.
func (b *LoopBounds) Unravel(linear int64) []int64 {
	out := make([]int64, len(b.Triplets))
	for i := len(b.Triplets) - 1; i >= 0; i-- {
		c := b.counts[i]
		if c == 0 {
			out[i] = b.Triplets[i].Start
			continue
		}
		out[i] = b.Triplets[i].value(linear % c)
		linear /= c
	}
	return out
}

// ForEnd completes the loop construct: it retires the region and
// performs the implicit barrier unless nowait was given.
func (c *Context) ForEnd(b *LoopBounds) error {
	if !b.inited {
		return &MisuseError{Construct: "for", Msg: "ForEnd without ForInit"}
	}
	if c.rt.loadTool() != nil {
		// An early break can leave the final chunk's completion event
		// unemitted; close it before the loop-end event.
		b.traceChunk(false)
		c.emit(ompt.EvLoopEnd, b.Total, 0, 0, b.sched.Kind.String())
	}
	c.wsDepth--
	c.curLoop = nil
	c.leaveRegion(b.region, b.regIdx)
	b.inited = false
	if c.kernelT0 != 0 {
		// Close the compiled-kernel span opened by KernelEnter: its
		// time attributes to the kernel state instead of compute.
		if pb := c.team.profBucket; pb != nil {
			if ns := ompt.Now() - c.kernelT0; ns > 0 {
				pb.Add(int32(c.num), prof.Kernel, ns)
				c.profWaitNS += ns
			}
		}
		c.kernelT0 = 0
	}
	if b.nowait {
		return nil
	}
	return c.team.Barrier(c)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// OrderedBegin blocks until every prior iteration of the enclosing
// ordered loop has completed its ordered region. iterValue is the
// current value of the loop variable.
func (c *Context) OrderedBegin(iterValue int64) error {
	b := c.curLoop
	if b == nil || !b.ordered {
		return &MisuseError{Construct: "ordered",
			Msg: "ordered region outside a loop with the ordered clause"}
	}
	tr := b.Triplets[0]
	if tr.Step == 0 {
		return &MisuseError{Construct: "ordered", Msg: "zero loop step"}
	}
	linear := (iterValue - tr.Start) / tr.Step
	if b.region.ordNext.Load() != linear {
		c.team.waitFor(func() bool {
			return b.region.ordNext.Load() == linear || c.team.broken.Load() != 0
		})
		if c.team.broken.Load() != 0 {
			return newBrokenAbort("ordered")
		}
	}
	return nil
}

// OrderedEnd releases the next iteration of the ordered sequence.
func (c *Context) OrderedEnd() error {
	b := c.curLoop
	if b == nil || !b.ordered {
		return &MisuseError{Construct: "ordered",
			Msg: "ordered region outside a loop with the ordered clause"}
	}
	b.region.ordNext.Add(1)
	c.team.wakeAll()
	return nil
}

// Single implements the single construct: SingleBegin returns true on
// exactly one thread of the team (the first to arrive, claimed with a
// compare-and-swap in the atomic layer and a locked check in the
// mutex layer).
type Single struct {
	region *regionState
	regIdx int64
	nowait bool
	hasCP  bool
	won    bool
	ctx    *Context
}

// SingleBegin enters a single construct; the winner executes the
// block. copyprivate declares that the executing thread will publish
// a value with CopyPrivate before calling End; it is incompatible
// with nowait.
func (c *Context) SingleBegin(nowait, copyprivate bool) (*Single, error) {
	if c.wsDepth > 0 {
		return nil, &MisuseError{Construct: "single",
			Msg: "worksharing construct may not be closely nested inside another worksharing construct"}
	}
	if nowait && copyprivate {
		return nil, &MisuseError{Construct: "single",
			Msg: "copyprivate may not be combined with nowait"}
	}
	region, idx := c.enterRegion()
	s := &Single{region: region, regIdx: idx, nowait: nowait, hasCP: copyprivate, ctx: c}
	s.won = region.claim.CompareAndSwap(0, 1)
	c.wsDepth++
	return s, nil
}

// Executes reports whether this thread executes the single block.
func (s *Single) Executes() bool { return s.won }

// CopyPrivate broadcasts v from the executing thread to the team
// members waiting in SingleEnd (the copyprivate clause).
func (s *Single) CopyPrivate(v any) error {
	if !s.won {
		return &MisuseError{Construct: "single",
			Msg: "copyprivate value published by a non-executing thread"}
	}
	s.region.cpMu.Lock()
	s.region.cpVal = v
	s.region.cpMu.Unlock()
	s.region.cpEvent.Set()
	s.ctx.team.wakeAll()
	return nil
}

// End completes the single construct, waiting at the implicit barrier
// unless nowait, and returns the copyprivate value if one was
// published (every thread receives it).
func (s *Single) End() (any, error) {
	c := s.ctx
	c.wsDepth--
	var v any
	if s.hasCP {
		// Every thread observes the published value before leaving.
		// The wait must abort if the executing thread dies before
		// publishing (an exception inside the single body), or the
		// rest of the team would block forever.
		if !s.region.cpEvent.IsSet() {
			c.team.waitFor(func() bool {
				return s.region.cpEvent.IsSet() || c.team.broken.Load() != 0
			})
			if !s.region.cpEvent.IsSet() {
				// Release the region entry even on this error path:
				// returning without leaveRegion would leak the entry
				// in the team's regionTable.
				c.leaveRegion(s.region, s.regIdx)
				return nil, &brokenAbort{MisuseError{Construct: "single",
					Msg: "copyprivate value was never published (team broken)"}}
			}
		}
		s.region.cpMu.Lock()
		v = s.region.cpVal
		s.region.cpMu.Unlock()
	}
	c.leaveRegion(s.region, s.regIdx)
	if s.nowait {
		return v, nil
	}
	if err := c.team.Barrier(c); err != nil {
		return nil, err
	}
	return v, nil
}

// Sections implements the sections construct: n section blocks are
// distributed over the team through a shared counter; each section id
// is executed exactly once (§III-D).
type Sections struct {
	region *regionState
	regIdx int64
	n      int64
	nowait bool
	ctx    *Context
	last   int64 // last section id executed by this thread, -1 if none
}

// SectionsBegin enters a sections construct with n section blocks.
func (c *Context) SectionsBegin(n int, nowait bool) (*Sections, error) {
	if c.wsDepth > 0 {
		return nil, &MisuseError{Construct: "sections",
			Msg: "worksharing construct may not be closely nested inside another worksharing construct"}
	}
	if n < 0 {
		return nil, &MisuseError{Construct: "sections", Msg: "negative section count"}
	}
	region, idx := c.enterRegion()
	c.wsDepth++
	return &Sections{region: region, regIdx: idx, n: int64(n), nowait: nowait, ctx: c, last: -1}, nil
}

// Next claims the next unexecuted section id, or returns -1 when all
// sections are claimed.
func (s *Sections) Next() int64 {
	id := s.region.iter.Add(1) - 1
	if id >= s.n {
		return -1
	}
	s.last = id
	return id
}

// IsLast reports whether this thread executed the final section
// (lastprivate support).
func (s *Sections) IsLast() bool { return s.last == s.n-1 }

// End completes the sections construct with its implicit barrier
// unless nowait.
func (s *Sections) End() error {
	c := s.ctx
	c.wsDepth--
	c.leaveRegion(s.region, s.regIdx)
	if s.nowait {
		return nil
	}
	return c.team.Barrier(c)
}

// Master reports whether this thread is the team master (thread 0).
// The master construct has no implied barrier.
func (c *Context) Master() bool { return c.num == 0 }
