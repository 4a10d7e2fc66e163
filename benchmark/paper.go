package main

import (
	_ "embed"
	"fmt"
	"math"
	"time"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/prof"
	"github.com/omp4go/omp4go/internal/pyomp"
	"github.com/omp4go/omp4go/internal/rt"
)

//go:embed programs/tri.py
var triSource string

// triReference is the plain-Go reference of programs/tri.py.
func triReference(args []int64) float64 {
	n, seed := args[0], args[1]
	total := 0.0
	for i := int64(0); i < n; i++ {
		s := 0.0
		for j := int64(0); j <= i; j++ {
			s += float64((i*31+j*17+seed)%97) * 0.5
		}
		total += s
	}
	return total
}

// source, reference and tolerance of a program by name: the registry,
// plus tri.
func programSpec(name string) (src string, ref func([]int64) float64, tol float64) {
	if name == "tri" {
		return triSource, triReference, 0
	}
	b := bench.Registry[name]
	return b.Source, b.Reference, b.Tolerance
}

// policy is one schedule(runtime) setting of the Fig. 7 sweep.
type policy struct {
	name  string
	sched rt.Schedule
}

var schedPolicies = []policy{
	{"static", rt.Schedule{Kind: directive.ScheduleStatic}},
	{"dynamic1", rt.Schedule{Kind: directive.ScheduleDynamic, Chunk: 1}},
	{"dynamic64", rt.Schedule{Kind: directive.ScheduleDynamic, Chunk: 64}},
	{"guided", rt.Schedule{Kind: directive.ScheduleGuided}},
}

// cell is one (program, threads, policy) row: the program to call,
// its arguments and the expected checksum, plus what the traced run
// accumulates about it.
type cell struct {
	row     *row
	prog    *program
	threads int
	args    []int64
	sched   *policy
	want    float64
	tol     float64

	// Traced-run sums over ops: wall time of the call, and deltas of
	// the runtime's profile and counters around it.
	ops     int64
	wallNS  int64
	stateNS [prof.NumStates]int64
	count   [metrics.NumCounters]int64
	allocs  int64
}

// paper is the shared shape of paper-dt, paper-interp and sched-dyn:
// registry programs loaded once per setup in one mode, each op one
// validated bench_main call.
type paper struct {
	mode     bench.Mode
	order    []string
	sizes    map[string][]int64
	policies []policy // nil: no schedule(runtime) sweep

	progs map[string]*program
	cells []*cell
	extra []*program // loaded by layers()
}

func newPaperDT() *paper {
	return &paper{mode: bench.CompiledDT, order: paperDTOrder, sizes: paperDTArgs}
}

func newPaperInterp() *paper {
	return &paper{mode: bench.Hybrid, order: paperInterpOrder, sizes: paperInterpArgs}
}

func newSchedDyn() *paper {
	return &paper{mode: bench.CompiledDT, order: schedDynOrder, sizes: schedDynArgs, policies: schedPolicies}
}

func (w *paper) setup(e *env) error {
	w.progs = map[string]*program{}
	w.cells = nil
	for _, name := range w.order {
		src, ref, tol := programSpec(name)
		p, err := loadProgram(e, -1, 0, name, src, w.mode, nil)
		if err != nil {
			return err
		}
		w.progs[name] = p
		args := withSeed(name, w.sizes[name], e.seed)
		want := ref(args)
		if w.policies == nil {
			w.cells = append(w.cells, &cell{row: e.row(name, true), prog: p, threads: e.n, args: args, want: want, tol: tol})
			continue
		}
		for i := range w.policies {
			pol := &w.policies[i]
			w.cells = append(w.cells, &cell{row: e.row(name+"/"+pol.name, true), prog: p, threads: e.n,
				args: args, sched: pol, want: want, tol: tol})
		}
	}
	// Warm-up: one untimed pass, so pools are up and code paths hot.
	for _, c := range w.cells {
		if _, err := w.runCell(e, c, 0); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.row.name, err)
		}
	}
	return nil
}

func (w *paper) close() {
	for _, p := range w.progs {
		p.close()
	}
	for _, p := range w.extra {
		p.close()
	}
	w.progs, w.extra, w.cells = nil, nil, nil
}

func (w *paper) measure(e *env, deadline time.Time) {
	ops := make([]op, len(w.cells))
	for i, c := range w.cells {
		c := c
		ops[i] = op{row: c.row, run: func(id int) (time.Duration, error) { return w.runCell(e, c, id) }}
	}
	rotate(e, ops, deadline)
}

// runCell performs one op: the bench_main call is the only timed part;
// the checksum is validated against the reference before the time
// counts.
func (w *paper) runCell(e *env, c *cell, opID int) (time.Duration, error) {
	r := c.prog.in.Runtime()
	if c.sched != nil {
		if err := r.SetSchedule(c.sched.sched); err != nil {
			return 0, err
		}
	}
	tracing := e.tr.on
	root := e.tr.begin(layerBench, "op:"+c.row.name, -1, opID, 0)
	var p0 *prof.Snapshot
	var m0 *metrics.Snapshot
	var a0, g0 int64
	if tracing {
		p0, m0, a0 = r.ProfileSnapshot(), r.MetricsSnapshot(), c.prog.in.AllocCount()
	}
	g0 = c.prog.glue.ns.Load()
	execLayer := layerCompile
	if w.mode == bench.Hybrid || w.mode == bench.Pure {
		execLayer = layerInterp
	}
	s := e.tr.begin(execLayer, "interp.CallFunction", root, opID, 0)
	t0 := time.Now()
	sum, err := c.prog.call(c.threads, c.args)
	d := time.Since(t0)
	e.tr.end(s)
	if tracing && err == nil {
		p1, m1 := r.ProfileSnapshot(), r.MetricsSnapshot()
		c.ops++
		c.wallNS += int64(d)
		glue := c.prog.glue.ns.Load() - g0
		c.allocs += c.prog.in.AllocCount() - a0
		var wait int64
		for st := prof.State(0); st < prof.NumStates; st++ {
			delta := stateTotal(p1, st) - stateTotal(p0, st)
			c.stateNS[st] += delta
			if st != prof.Compute && st != prof.Kernel {
				wait += delta
			}
		}
		for id := metrics.CounterID(0); id < metrics.NumCounters; id++ {
			c.count[id] += m1.Counters[id] - m0.Counters[id]
		}
		// State times are summed over the team; as wall time a wait
		// costs its share of one member.
		e.tr.setSplit(s, map[string]int64{layerRT: wait / int64(c.threads), layerBench: glue})
	}
	if err == nil && !checksumOK(sum, c.want, c.tol) {
		err = fmt.Errorf("checksum %v, reference %v", sum, c.want)
	}
	e.tr.end(root)
	return d, err
}

func stateTotal(s *prof.Snapshot, st prof.State) int64 {
	if s == nil {
		return 0
	}
	var ns int64
	for i := range s.Buckets {
		ns += s.Buckets[i].State(st)
	}
	return ns
}

// loopIters is the analytic count of innermost-body executions inside
// the worksharing loops of one paper-dt op (what the kernels iterate
// over); 0 for the programs of the other workloads.
func loopIters(name string, a []int64) int64 {
	switch name {
	case "pi":
		return a[0]
	case "fft":
		n := a[0]
		return n / 2 * int64(math.Round(math.Log2(float64(n))))
	case "jacobi":
		return a[1] * (a[0]*a[0] + a[0])
	case "lu":
		var s int64
		for k := int64(0); k < a[0]; k++ {
			s += (a[0] - k - 1) * (a[0] - k - 1)
		}
		return s
	case "md":
		return (a[1]+1)*a[0]*a[0] + (2*a[1]+1)*a[0]
	}
	return 0
}

// probe runs a cell reps times outside the timed section and returns
// its median op time in ms; failures count against the run.
func (w *paper) probe(e *env, c *cell, reps int) float64 {
	for i := 0; i < reps; i++ {
		d, err := w.runCell(e, c, e.opID())
		e.record(c.row, d, err)
	}
	return median(c.row.ms)
}

// layers reports what the traced phase summed per cell, then runs the
// probes of the workload's mode.
func (w *paper) layers(e *env) {
	var barrierShares, kernelNS []float64
	var kernelLoops, allocs, ops int64
	for _, c := range w.cells {
		if c.ops == 0 {
			continue
		}
		var team int64
		for _, ns := range c.stateNS {
			team += ns
		}
		if team > 0 {
			barrierShares = append(barrierShares, float64(c.stateNS[prof.BarrierWait])/float64(team))
		}
		exec := c.stateNS[prof.Kernel] + c.stateNS[prof.Compute]
		if it := loopIters(c.prog.name, c.args) * c.ops; it > 0 && exec > 0 {
			kernelNS = append(kernelNS, float64(exec)/float64(it))
		}
		kernelLoops += c.count[metrics.CompiledKernelLoops]
		allocs += c.allocs
		ops += c.ops
		e.closure = append(e.closure, closureRow{
			Row: c.row.name, WallNS: float64(c.wallNS) / float64(c.ops), Threads: c.threads,
			ExecNS: float64(exec) / float64(c.ops),
			Events: map[string]int64{
				"regions":  c.count[metrics.RegionsForked] / c.ops,
				"barriers": c.count[metrics.Barriers] / c.ops,
				"chunks":   c.count[metrics.LoopChunks] / c.ops,
			}})
	}
	e.layer["rt.barrier_wait_share"] = mean(barrierShares)
	switch {
	case w.policies != nil:
		w.bridgeCost(e)
	case w.mode == bench.CompiledDT:
		e.layer["compile.kernel_ns_per_iter"] = geomean(kernelNS)
		if ops > 0 {
			e.layer["compile.kernel_loops"] = float64(kernelLoops) / float64(ops)
		}
		e.layer["par_efficiency"], e.layer["compile.native_gap"] = w.modeProbes(e)
	case w.mode == bench.Hybrid:
		if ops > 0 {
			e.layer["interp.allocs_per_op"] = float64(allocs) / float64(ops)
		}
		e.layer["par_efficiency"], e.layer["interp.hybrid_over_compiled"] = w.modeProbes(e)
	}
}

// modeProbes runs every cell's comparison rows a few times: T=1 for
// the parallel efficiency t(1) / (n * t(n)), and the yardstick of the
// workload's mode — the hand-written native pyomp kernel for
// CompiledDT, the boxed closure compiler for Hybrid. It returns the
// geomean efficiency and the geomean of t(n) over the yardstick's time.
func (w *paper) modeProbes(e *env) (efficiency, overYardstick float64) {
	const reps = 3
	var effs, ratios []float64
	for _, c := range w.cells {
		name := c.prog.name
		tn := median(c.row.ms)
		if e.n > 1 {
			one := &cell{row: e.row(c.row.name+"@T1", false), prog: c.prog, threads: 1, args: c.args, want: c.want, tol: c.tol}
			if t1 := w.probe(e, one, reps); t1 > 0 && tn > 0 {
				effs = append(effs, t1/(float64(e.n)*tn))
			}
		}
		var ty float64
		if w.mode == bench.CompiledDT {
			r := e.row(c.row.name+"@pyomp", false)
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				sum, err := pyomp.Run(name, e.n, c.args)
				d := time.Since(t0)
				if err == nil && !checksumOK(sum, c.want, c.tol) {
					err = fmt.Errorf("pyomp checksum %v, reference %v", sum, c.want)
				}
				e.record(r, d, err)
			}
			ty = median(r.ms)
		} else {
			src, _, _ := programSpec(name)
			p, err := loadProgram(e, -1, 0, name, src, bench.Compiled, nil)
			if err != nil {
				e.record(c.row, 0, err)
				continue
			}
			w.extra = append(w.extra, p)
			cc := &cell{row: e.row(c.row.name+"@compiled", false), prog: p, threads: e.n, args: c.args, want: c.want, tol: c.tol}
			ty = w.probe(e, cc, reps)
		}
		if ty > 0 && tn > 0 {
			ratios = append(ratios, tn/ty)
		}
	}
	return geomean(effs), geomean(ratios)
}

// bridgeN is tri's size for the bridge-cost probe: small, so that a
// chunk claim is a measurable share of the few iterations it hands out.
const bridgeN = 128

// bridgeCost measures compile.bridge_ns_per_chunk on tri at one
// thread, where static and dynamic,1 do the same work in the same
// order and differ only in how many chunks the bridge claims (one
// against bridgeN). The two are interleaved so drift hits both.
func (w *paper) bridgeCost(e *env) {
	const reps = 25
	p := w.progs["tri"]
	args := []int64{bridgeN, e.seed}
	want := triReference(args)
	var cells [2]*cell
	for i, pol := range []*policy{&w.policies[0], &w.policies[1]} {
		cells[i] = &cell{row: e.row("tri-small/"+pol.name+"@T1", false), prog: p, threads: 1, args: args, sched: pol, want: want}
	}
	for r := 0; r < reps; r++ {
		for _, c := range cells {
			w.probe(e, c, 1)
		}
	}
	static, dynamic := median(cells[0].row.ms), median(cells[1].row.ms)
	e.layer["compile.bridge_ns_per_chunk"] = (dynamic - static) * 1e6 / (bridgeN - 1)
}
