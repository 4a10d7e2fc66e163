package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark runs. setup does
// everything a user pays before the first operation (input generation,
// reference results, program load, server start, rendezvous, warm-up)
// and is timed as setup_s; it is called several times per run, each
// time after close. measure runs validated operations until the
// deadline. layers runs the trace-mode probes that need their own
// runs (other modes, the other sync layer, observers on or off).
type workload interface {
	setup(e *env) error
	measure(e *env, deadline time.Time)
	layers(e *env)
	close()
}

// workloadDef ties a name to its constructor, the layer group the
// separation check expects to dominate, and the one-line reason that
// BENCHMARK.json repeats.
type workloadDef struct {
	name     string
	why      string
	dominant []string
	make     func() workload
}

var workloadDefs = []workloadDef{
	{"paper-dt", "typed static loops in CompiledDT: compile's kernels and closure chain do the work, rt forks and barriers a few times",
		[]string{layerCompile}, func() workload { return newPaperDT() }},
	{"paper-interp", "the same programs plus the dict/str/object ones in Hybrid: interp does the work and compile is bypassed",
		[]string{layerInterp}, func() workload { return newPaperInterp() }},
	{"sched-dyn", "schedule(runtime) loops under static/dynamic/guided in CompiledDT: the bridge lowering and per-chunk claims, not kernels",
		[]string{layerCompile, layerInterp, layerRT}, func() workload { return newSchedDyn() }},
	{"rt-fine", "Go-closure programs with trivial bodies on internal/rt: fork/join, barriers, chunk claims, tasks; no MiniPy code runs",
		[]string{layerRT}, func() workload { return newRTFine() }},
	{"cold-load", "source text to callable for registry and generated modules: lex, parse, directive, transform, compile; almost nothing executes",
		[]string{layerMinipy, layerDirective, layerTransform, layerCompile}, func() workload { return newColdLoad() }},
	{"serve-closed", "closed loop of keep-alive tenants against in-process serve, mixed short/medium/stream/malformed requests",
		[]string{layerServe, layerMinipy, layerDirective, layerTransform, layerCompile}, func() workload { return newServeClosed() }},
	{"mpi-tcp", "ranks over loopback TCP: coalesced halo batches (throughput) against single-message ping-pong and collectives (latency)",
		[]string{layerMPI}, func() workload { return newMPITCP() }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// Problem sizes. Fixed here and never tuned at run time, so event
// counts per operation repeat exactly. Sized on the reference host
// (2 vCPU) so that one rotation over a workload's rows takes well
// under a second and a 10 s run collects at least 15 samples per row;
// README.md has the measured op times.
var (
	// paper-dt: CompiledDT sizes (the registry DefaultArgs are 4-20x
	// smaller). The last argument of seeded programs is replaced by
	// the run's input seed.
	paperDTArgs = map[string][]int64{
		"fft":    {1 << 13, 0},
		"jacobi": {320, 8, 0},
		"lu":     {88, 0},
		"md":     {200, 3, 0},
		"pi":     {800_000},
	}
	paperDTOrder = []string{"fft", "jacobi", "lu", "md", "pi"}

	// paper-interp: Hybrid sizes, roughly 30x less work per op.
	paperInterpArgs = map[string][]int64{
		"fft":       {1 << 10, 0},
		"jacobi":    {72, 4, 0},
		"lu":        {44, 0},
		"md":        {40, 2, 0},
		"pi":        {40_000},
		"graphic":   {1500, 12, 0},
		"wordcount": {900, 0},
	}
	paperInterpOrder = []string{"fft", "jacobi", "lu", "md", "pi", "graphic", "wordcount"}

	// sched-dyn: three programs under four policies.
	schedDynArgs = map[string][]int64{
		"graphic":   {2500, 12, 0},
		"wordcount": {1500, 0},
		"tri":       {900, 0},
	}
	schedDynOrder = []string{"graphic", "wordcount", "tri"}
)

// row collects the validated op times of one program (cell, request
// class, message kind). Headline rows feed op_p50_ms and op_p95_ms;
// the others are printed and feed per-layer metrics only.
type row struct {
	name     string
	headline bool
	ms       []float64
}

// env is the state of one run of one workload.
type env struct {
	seed int64
	n    int // team threads / clients / ranks: min(nproc, 4)
	tr   *tracer

	mu        sync.Mutex
	rows      []*row
	byName    map[string]*row
	attempted int
	failed    int
	nextOp    int
	failLog   int

	layer   map[string]float64 // per-layer metrics (trace mode)
	closure []closureRow       // paper-dt / sched-dyn rows for the closure line
}

func newEnv(seed int64, n int) *env {
	return &env{seed: seed, n: n, tr: newTracer(), byName: map[string]*row{}, layer: map[string]float64{}}
}

// row returns the row called name, creating it on first use.
func (e *env) row(name string, headline bool) *row {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.byName[name]; ok {
		return r
	}
	r := &row{name: name, headline: headline}
	e.rows = append(e.rows, r)
	e.byName[name] = r
	return r
}

// opID hands out the identifier the spans of one operation share.
func (e *env) opID() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextOp++
	return e.nextOp
}

// record counts one attempted operation. A failed validation or an
// error counts against fail_ratio and is never timed as a success.
func (e *env) record(r *row, d time.Duration, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		if e.failLog < 5 {
			e.failLog++
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", r.name, err)
		}
		return
	}
	r.ms = append(r.ms, float64(d)/1e6)
}

// resetSamples drops recorded samples (between the untraced and the
// traced phase of a trace run) but keeps the failure counts.
func (e *env) resetSamples() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.rows {
		r.ms = nil
	}
}

// headlineP50 is the geomean over headline rows of the median op time.
func (e *env) headlineP50() float64 {
	var meds []float64
	for _, r := range e.rows {
		if r.headline && len(r.ms) > 0 {
			meds = append(meds, median(r.ms))
		}
	}
	return geomean(meds)
}

// headlineP95 is the 95th percentile of every headline op time taken
// relative to its own row's median, scaled by headlineP50: the tail a
// caller of a typical op sees, comparable across rows of very
// different size.
func (e *env) headlineP95() float64 {
	var rel []float64
	for _, r := range e.rows {
		if !r.headline || len(r.ms) == 0 {
			continue
		}
		m := median(r.ms)
		for _, x := range r.ms {
			rel = append(rel, x/m)
		}
	}
	return percentile(rel, 95) * e.headlineP50()
}

func (e *env) headlineOps() int {
	n := 0
	for _, r := range e.rows {
		if r.headline {
			n += len(r.ms)
		}
	}
	return n
}

// op is one repeatable, validated operation of a sequential workload.
// run returns the time of the measured call only (validation and
// harness glue excluded) or the reason the op failed.
type op struct {
	row *row
	run func(opID int) (time.Duration, error)
}

// rotate runs ops round-robin until the deadline, so drift over the
// run hits every row equally. It always completes at least one op.
func rotate(e *env, ops []op, deadline time.Time) {
	for i := 0; ; i++ {
		o := ops[i%len(ops)]
		d, err := o.run(e.opID())
		e.record(o.row, d, err)
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// closureRow carries what the all-workloads report needs to print the
// closure line of one paper-dt / sched-dyn row.
type closureRow struct {
	Row     string           `json:"row"`
	WallNS  float64          `json:"wall_ns"`
	Threads int              `json:"threads"`
	ExecNS  float64          `json:"exec_ns"` // kernel+compute state time, summed over the team
	Events  map[string]int64 `json:"events"`  // regions, barrier passages, chunks per op
}
