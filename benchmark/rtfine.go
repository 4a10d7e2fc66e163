package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/ompt"
	"github.com/omp4go/omp4go/internal/rt"
)

// rt-fine sizes: primitive counts per op. Bodies are trivial, so an
// op's time is the runtime's own cost of that many primitives.
const (
	stormRegions   = 2000
	ringBarriers   = 6000
	staticLoops    = 1000
	staticIters    = 2048
	dynLoops       = 40
	dynIters       = 2048
	guidedLoops    = 1000
	guidedIters    = 2048
	criticalPerThr = 6000
	mergesPerThr   = 6000
	fibN           = 17
	wavefrontSide  = 40
)

// rtSet is one runtime instance and its initial-thread context.
type rtSet struct {
	r    *rt.Runtime
	root *rt.Context
}

func newRTSet(layer rt.Layer, env map[string]string) *rtSet {
	r := rt.NewWithEnv(layer, func(k string) string { return env[k] })
	return &rtSet{r: r, root: r.NewContext()}
}

// rtProgram is one rt-fine program. run performs one op on threads
// team members and validates it (exactly-once sums, fib value,
// wavefront checksum); a program that times phases separately returns
// them as parts. units maps each per-layer unit cost the program
// yields to the number of primitives one op performed, given the
// runtime's counter deltas over that op.
type rtProgram struct {
	name  string
	run   func(s *rtSet, threads int) (parts map[string]time.Duration, err error)
	units unitMap
}

// unitMap: per-layer unit cost name -> primitives per op, from the
// per-op counter deltas and the team size.
type unitMap = map[string]func(perOp *[metrics.NumCounters]float64, threads int) float64

func counterUnit(id metrics.CounterID) func(*[metrics.NumCounters]float64, int) float64 {
	return func(d *[metrics.NumCounters]float64, _ int) float64 { return d[id] }
}

func perThread(n int) func(*[metrics.NumCounters]float64, int) float64 {
	return func(_ *[metrics.NumCounters]float64, t int) float64 { return float64(n * t) }
}

var rtPrograms = []rtProgram{
	{"region-storm", regionStorm, unitMap{"rt.forkjoin_ns.tn": counterUnit(metrics.RegionsForked)}},
	{"barrier-ring", barrierRing, unitMap{"rt.barrier_ns": func(*[metrics.NumCounters]float64, int) float64 { return ringBarriers }}},
	{"static-loop", loopProgram(rt.Schedule{Kind: directive.ScheduleStatic}, staticLoops, staticIters),
		unitMap{"rt.static_ns_per_iter": counterUnit(metrics.LoopIterations)}},
	{"dyn-loop", loopProgram(rt.Schedule{Kind: directive.ScheduleDynamic, Chunk: 1}, dynLoops, dynIters),
		unitMap{"rt.dynamic_claim_ns": counterUnit(metrics.LoopChunks)}},
	{"guided-loop", loopProgram(rt.Schedule{Kind: directive.ScheduleGuided}, guidedLoops, guidedIters),
		unitMap{"rt.guided_claim_ns": counterUnit(metrics.LoopChunks)}},
	{"critical-reduce", criticalReduce, unitMap{
		"rt.critical_ns": perThread(criticalPerThr), "rt.reduce_merge_ns": perThread(mergesPerThr)}},
	{"fib-tasks", fibTasks, unitMap{"rt.task_spawn_ns": counterUnit(metrics.TasksCreated)}},
	{"wavefront-deps", wavefrontDeps, unitMap{"rt.depend_release_ns": counterUnit(metrics.TasksCreated)}},
}

func regionStorm(s *rtSet, threads int) (map[string]time.Duration, error) {
	var ran atomic.Int64
	for i := 0; i < stormRegions; i++ {
		err := s.r.Parallel(s.root, rt.ParallelOpts{NumThreads: threads}, func(*rt.Context) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if got, want := ran.Load(), int64(stormRegions*threads); got != want {
		return nil, fmt.Errorf("region-storm: %d member executions, want %d", got, want)
	}
	return nil, nil
}

// barrierRing: between barriers each member publishes the round in
// its slot and, after the barrier, must see its neighbour's. Two slot
// planes alternate so a fast neighbour's next write never lands on
// the slot being read.
func barrierRing(s *rtSet, threads int) (map[string]time.Duration, error) {
	type slot struct {
		v int64
		_ [56]byte
	}
	planes := [2][]slot{make([]slot, threads), make([]slot, threads)}
	var bad atomic.Int64
	err := s.r.Parallel(s.root, rt.ParallelOpts{NumThreads: threads}, func(c *rt.Context) error {
		me, size := c.GetThreadNum(), c.GetNumThreads()
		for k := 0; k < ringBarriers; k++ {
			planes[k%2][me].v = int64(k + 1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if planes[k%2][(me+1)%size].v != int64(k+1) {
				bad.Add(1)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n := bad.Load(); n != 0 {
		return nil, fmt.Errorf("barrier-ring: %d reads passed a barrier before the neighbour arrived", n)
	}
	return nil, nil
}

// loopProgram runs loops worksharing loops of iters iterations under
// sched inside one region; every iteration of every loop must run
// exactly once.
func loopProgram(sched rt.Schedule, loops, iters int) func(*rtSet, int) (map[string]time.Duration, error) {
	return func(s *rtSet, threads int) (map[string]time.Duration, error) {
		hits := make([]int32, iters)
		err := s.r.Parallel(s.root, rt.ParallelOpts{NumThreads: threads}, func(c *rt.Context) error {
			for l := 0; l < loops; l++ {
				b := rt.ForBounds(rt.Triplet{Start: 0, End: int64(iters), Step: 1})
				if err := c.ForInit(b, rt.ForOpts{Sched: sched, SchedSet: true}); err != nil {
					return err
				}
				for b.ForNext() {
					for i := b.Lo; i < b.Hi; i++ {
						hits[i]++ // the loop's barrier orders successive writers
					}
				}
				if err := c.ForEnd(b); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, h := range hits {
			if h != int32(loops) {
				return nil, fmt.Errorf("iteration %d ran %d times over %d loops", i, h, loops)
			}
		}
		return nil, nil
	}
}

// criticalReduce times two phases separately: contended critical
// sections, then per-member reduction merges through rt.ReduceSlot.
func criticalReduce(s *rtSet, threads int) (map[string]time.Duration, error) {
	var shared, total int64
	var t0, t1, t2 time.Time
	err := s.r.Parallel(s.root, rt.ParallelOpts{NumThreads: threads}, func(c *rt.Context) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Master() {
			t0 = time.Now()
		}
		for k := 0; k < criticalPerThr; k++ {
			c.CriticalEnter("bench")
			shared++
			c.CriticalExit("bench")
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Master() {
			t1 = time.Now()
		}
		for k := 0; k < mergesPerThr; k++ {
			slot, err := rt.NewReduceSlot[int64]("+")
			if err != nil {
				return err
			}
			slot.Combine(1)
			if err := slot.Merge(c, func(p int64) error { total += p; return nil }); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Master() {
			t2 = time.Now()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if want := int64(criticalPerThr * threads); shared != want {
		return nil, fmt.Errorf("critical-reduce: counter %d, want %d", shared, want)
	}
	if want := int64(mergesPerThr * threads); total != want {
		return nil, fmt.Errorf("critical-reduce: reduction %d, want %d", total, want)
	}
	return map[string]time.Duration{"rt.critical_ns": t1.Sub(t0), "rt.reduce_merge_ns": t2.Sub(t1)}, nil
}

func fibRef(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func fibTask(c *rt.Context, n int, out *int64) error {
	if n < 2 {
		*out = int64(n)
		return nil
	}
	var a, b int64
	if err := c.SubmitTask(rt.TaskOpts{}, func(c *rt.Context) error { return fibTask(c, n-1, &a) }); err != nil {
		return err
	}
	if err := c.SubmitTask(rt.TaskOpts{}, func(c *rt.Context) error { return fibTask(c, n-2, &b) }); err != nil {
		return err
	}
	if err := c.TaskWait(); err != nil {
		return err
	}
	*out = a + b
	return nil
}

func fibTasks(s *rtSet, threads int) (map[string]time.Duration, error) {
	var got int64
	err := s.r.Parallel(s.root, rt.ParallelOpts{NumThreads: threads}, func(c *rt.Context) error {
		if c.Master() {
			return fibTask(c, fibN, &got)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if want := fibRef(fibN); got != want {
		return nil, fmt.Errorf("fib-tasks: fib(%d) = %d, want %d", fibN, got, want)
	}
	return nil, nil
}

func wavefrontCell(up, left float64) float64 {
	return math.Sqrt(up*1.25+left/3.0) + up/7.0
}

// wavefrontRef is the sequential row-major sweep of the recurrence.
func wavefrontRef(n int) float64 {
	a := make([]float64, n*n)
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			up, left := 1.0, 1.0
			if i > 0 {
				up = a[(i-1)*n+j]
			}
			if j > 0 {
				left = a[i*n+j-1]
			}
			a[i*n+j] = wavefrontCell(up, left)
			sum += a[i*n+j]
		}
	}
	return sum
}

var wavefrontWant = wavefrontRef(wavefrontSide)

// wavefrontDeps: one task per grid cell, sequenced only by depend
// clauses on the upper and left neighbours, so the result is
// bit-identical to the sequential sweep under any schedule.
func wavefrontDeps(s *rtSet, threads int) (map[string]time.Duration, error) {
	const n = wavefrontSide
	a := make([]float64, n*n)
	err := s.r.Parallel(s.root, rt.ParallelOpts{NumThreads: threads}, func(c *rt.Context) error {
		if !c.Master() {
			return nil
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				i, j := i, j
				deps := rt.Out(i*n + j)
				if i > 0 {
					deps = append(deps, rt.In((i-1)*n+j)...)
				}
				if j > 0 {
					deps = append(deps, rt.In(i*n+j-1)...)
				}
				err := c.SubmitTask(rt.TaskOpts{Depends: deps}, func(*rt.Context) error {
					up, left := 1.0, 1.0
					if i > 0 {
						up = a[(i-1)*n+j]
					}
					if j > 0 {
						left = a[i*n+j-1]
					}
					a[i*n+j] = wavefrontCell(up, left)
					return nil
				})
				if err != nil {
					return err
				}
			}
		}
		return c.TaskWait()
	})
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, v := range a {
		sum += v
	}
	if sum != wavefrontWant {
		return nil, fmt.Errorf("wavefront-deps: checksum %v, want %v", sum, wavefrontWant)
	}
	return nil, nil
}

// rtAcc accumulates, per program, what the unit costs are taken from.
type rtAcc struct {
	ms     []float64
	partNS map[string]float64
	wallNS float64
	count  [metrics.NumCounters]int64
	ops    int
}

type rtFine struct {
	atomic *rtSet
	rows   []*row
	acc    []rtAcc // traced-phase sums, LayerAtomic
}

func newRTFine() *rtFine { return &rtFine{} }

func (w *rtFine) setup(e *env) error {
	w.atomic = newRTSet(rt.LayerAtomic, nil)
	w.rows = nil
	w.acc = make([]rtAcc, len(rtPrograms))
	for i := range rtPrograms {
		p := &rtPrograms[i]
		w.rows = append(w.rows, e.row(p.name, true))
		if _, err := p.run(w.atomic, e.n); err != nil { // warm-up
			return err
		}
	}
	return nil
}

func (w *rtFine) close() {
	if w.atomic != nil {
		w.atomic.r.Shutdown()
		w.atomic = nil
	}
}

func (w *rtFine) measure(e *env, deadline time.Time) {
	ops := make([]op, len(rtPrograms))
	for i := range rtPrograms {
		i := i
		ops[i] = op{row: w.rows[i], run: func(id int) (time.Duration, error) {
			var acc *rtAcc
			if e.tr.on {
				acc = &w.acc[i]
			}
			return w.runOp(e, w.atomic, i, e.n, acc, id)
		}}
	}
	rotate(e, ops, deadline)
}

// runOp runs program i once on s. With an accumulator (the traced
// phase, the probes) it reads the runtime's counters around the op
// and keeps the deltas.
func (w *rtFine) runOp(e *env, s *rtSet, i, threads int, acc *rtAcc, opID int) (time.Duration, error) {
	p := &rtPrograms[i]
	root := e.tr.begin(layerRT, "op:"+p.name, -1, opID, 0)
	var m0 *metrics.Snapshot
	if acc != nil {
		m0 = s.r.MetricsSnapshot()
	}
	t0 := time.Now()
	parts, err := p.run(s, threads)
	d := time.Since(t0)
	e.tr.end(root)
	if err == nil && acc != nil {
		m1 := s.r.MetricsSnapshot()
		acc.ops++
		acc.wallNS += float64(d)
		acc.ms = append(acc.ms, float64(d)/1e6)
		for id := range acc.count {
			acc.count[id] += m1.Counters[id] - m0.Counters[id]
		}
		for k, v := range parts {
			if acc.partNS == nil {
				acc.partNS = map[string]float64{}
			}
			acc.partNS[k] += float64(v)
		}
	}
	return d, err
}

// unitCosts divides the mean op time (or the mean of a timed phase)
// by the primitives one op performed.
func unitCosts(accs []rtAcc, threads int, suffix string, into map[string]float64) {
	for i := range rtPrograms {
		a := &accs[i]
		if a.ops == 0 {
			continue
		}
		var perOp [metrics.NumCounters]float64
		for id := range perOp {
			perOp[id] = float64(a.count[id]) / float64(a.ops)
		}
		for unit, count := range rtPrograms[i].units {
			ns := a.wallNS
			if part, ok := a.partNS[unit]; ok {
				ns = part
			}
			if n := count(&perOp, threads); n > 0 {
				into[unit+suffix] = ns / float64(a.ops) / n
			}
		}
	}
}

// variant is one way of running the programs that layers() compares
// against the default: another sync layer, an observer attached, the
// profiler off.
type variant struct {
	suffix string
	set    *rtSet
	tool   ompt.Tool // attached around each op when set
}

// probe runs every program reps times under each variant, interleaved
// so drift and GC hit every variant alike, and returns one accumulator
// set per variant. The first pass is a warm-up and is not kept.
func (w *rtFine) probe(e *env, variants []variant, threads, reps int) [][]rtAcc {
	accs := make([][]rtAcc, len(variants))
	for r := -1; r < reps; r++ {
		for v, vr := range variants {
			if r == 0 || accs[v] == nil {
				accs[v] = make([]rtAcc, len(rtPrograms))
			}
			for i := range rtPrograms {
				if vr.tool != nil {
					vr.set.r.SetTool(vr.tool)
				}
				d, err := w.runOp(e, vr.set, i, threads, &accs[v][i], e.opID())
				if vr.tool != nil {
					vr.set.r.SetTool(nil)
				}
				if r >= 0 {
					e.record(e.row(rtPrograms[i].name+vr.suffix, false), d, err)
				}
			}
		}
	}
	return accs
}

// accRatio is the geomean over programs of median(b)/median(a).
func accRatio(a, b []rtAcc) float64 {
	var rs []float64
	for i := range a {
		if ma, mb := median(a[i].ms), median(b[i].ms); ma > 0 && mb > 0 {
			rs = append(rs, mb/ma)
		}
	}
	return geomean(rs)
}

func (w *rtFine) layers(e *env) {
	const reps = 7
	unitCosts(w.acc, e.n, "", e.layer)
	if fib := &w.acc[6]; fib.count[metrics.TasksCreated] > 0 {
		e.layer["rt.task_steal_share"] = float64(fib.count[metrics.TasksStolen]) / float64(fib.count[metrics.TasksCreated])
	}
	mutex := newRTSet(rt.LayerMutex, nil)
	off := newRTSet(rt.LayerAtomic, map[string]string{"OMP4GO_PROFILE": "off"})
	defer mutex.r.Shutdown()
	defer off.r.Shutdown()

	// Every ratio is against a base pass taken in the same interleaved
	// rounds as its variant. The tracer's ring is kept small: a region
	// storm gives every region's members fresh rings.
	accs := w.probe(e, []variant{
		{"@base", w.atomic, nil},
		{"@mutex", mutex, nil},
		{"@profoff", off, nil},
		{"@ompt", w.atomic, ompt.NewTracer(1024)},
	}, e.n, reps)
	base, mu, po, traced := accs[0], accs[1], accs[2], accs[3]
	unitCosts(mu, e.n, ".mutex", e.layer)
	e.layer["rt.mutex_over_atomic"] = accRatio(base, mu)
	e.layer["ompt.tracer_overhead_share"] = accRatio(base, traced) - 1
	if r := accRatio(po, base); r > 0 {
		e.layer["prof.overhead_share"] = r - 1
	}

	// Fork/join of a team of one: region-storm at T=1 on both layers.
	for _, v := range []variant{{"", w.atomic, nil}, {".mutex", mutex, nil}} {
		var acc rtAcc
		for r := 0; r < reps; r++ {
			d, err := w.runOp(e, v.set, 0, 1, &acc, e.opID())
			e.record(e.row("region-storm@T1"+v.suffix, false), d, err)
		}
		if n := acc.count[metrics.RegionsForked]; n > 0 {
			e.layer["rt.forkjoin_ns.t1"+v.suffix] = acc.wallNS / float64(n)
		}
	}
}
