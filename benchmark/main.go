// Command benchmark is omp4go's layered benchmark: seven workloads
// that separate the MiniPy pipeline, the interpreter, the compiled
// kernels, the OpenMP runtime, the MPI transport and the serving
// tier, each operation validated against an independent reference.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of stdout is the JSON
//	    result BENCHMARK.json describes (end-to-end metrics with
//	    --trace 0, per-layer metrics with --trace 1).
//	benchmark -seed N [-runs R] [-trace 1] -out FILE
//	    every workload, each run in a fresh child process, R runs
//	    each; writes one report with medians and quartiles.
//	benchmark -compare A.json B.json
//	    run-to-run agreement of two reports.
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupReps is how often a run sets the workload up; setup_s is the
// median, so one slow start does not decide it.
const setupReps = 5

// hostStamp says where and on what a result was taken. Reports whose
// nproc, GOMAXPROCS or CPU model differ are not comparable.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func stamp(seed int64) hostStamp {
	h := hostStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Commit: "unknown", Seed: seed}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of a single run's stdout.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what -out writes for a single run: the result plus the
// rows behind it.
type runDetail struct {
	Workload string       `json:"workload"`
	Trace    bool         `json:"trace"`
	Host     hostStamp    `json:"host"`
	Result   runResult    `json:"result"`
	Rows     []rowSummary `json:"rows"`
	Closure  []closureRow `json:"closure,omitempty"`
}

type rowSummary struct {
	Name     string  `json:"name"`
	Headline bool    `json:"headline"`
	Samples  int     `json:"samples"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run; empty runs every workload in child processes")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Int("seconds", 10, "length of the measured section of one run")
		trace        = flag.Int("trace", 0, "1: traced run reporting per-layer metrics and writing a Chrome trace")
		out          = flag.String("out", "", "write the detailed JSON (single run) or the report (all workloads) here")
		outDir       = flag.String("outdir", defaultOutDir(), "directory for Chrome traces and child results")
		runs         = flag.Int("runs", 3, "runs per workload when running every workload")
		compare      = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	case *workloadName == "":
		os.Exit(runAll(*seed, *seconds, *runs, *trace != 0, *out, *outDir))
	}
	def := findWorkload(*workloadName)
	if def == nil {
		fatal("unknown workload %q", *workloadName)
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	os.Exit(runOne(def, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *out, *outDir))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// defaultOutDir is benchmark/out: run.sh exports the benchmark's own
// directory; under `go run .` the working directory is already it.
func defaultOutDir() string {
	if d := os.Getenv("OMP4GO_BENCH_DIR"); d != "" {
		return filepath.Join(d, "out")
	}
	return "out"
}

// loadSize is n = min(nproc, 4): the team threads, client connections
// and MPI ranks every workload uses, and the GOMAXPROCS it runs under.
func loadSize() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}

// runOne performs one run of one workload and prints its result.
func runOne(def *workloadDef, seed int64, length time.Duration, traced bool, out, outDir string) int {
	n := loadSize()
	e := newEnv(seed, n)
	w := def.make()

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			fatal("%s: setup: %v", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	metricsOut := map[string]metricValue{}
	if !traced {
		t0 := time.Now()
		w.measure(e, t0.Add(length))
		wall := time.Since(t0).Seconds()
		vals := map[string]float64{
			"setup_s":     median(setups),
			"op_p50_ms":   e.headlineP50(),
			"ops_per_s":   float64(e.headlineOps()) / wall,
			"peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			metricsOut[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
	} else {
		// A third of the run untraced (the baseline the tracing
		// overhead is taken against), a third traced, the rest for the
		// probes that need their own runs.
		phase := length * 35 / 100
		w.measure(e, time.Now().Add(phase))
		base := e.headlineP50()
		e.resetSamples()
		e.tr.on = true
		w.measure(e, time.Now().Add(phase))
		e.tr.on = false
		if base > 0 {
			e.layer["trace.overhead_share"] = (e.headlineP50() - base) / base
		}
		e.layer["op_p95_ms"] = e.headlineP95()
		w.layers(e)
		shares := e.tr.layerShares()
		dom := 0.0
		for _, l := range allLayers {
			e.layer["share."+l] = shares[l]
		}
		for _, l := range def.dominant {
			dom += shares[l]
		}
		e.layer["separation.dominant_share"] = dom
		if e.attempted > 0 {
			e.layer["fail_ratio"] = float64(e.failed) / float64(e.attempted)
		}
		for _, m := range perLayer {
			metricsOut[m.name] = metricValue{Value: e.layer[m.name], Unit: m.unit}
		}
		path := filepath.Join(outDir, "trace-"+def.name+".json")
		if err := e.tr.writeChrome(path); err != nil {
			fatal("%s: write trace: %v", def.name, err)
		}
		fmt.Printf("chrome trace: %s (%d spans)\n", path, len(e.tr.spans))
		if dom < 0.5 {
			fmt.Printf("SEPARATION FAIL: %s holds %.2f of op self time, want at least 0.50\n",
				strings.Join(def.dominant, "+"), dom)
			e.failed++
		}
	}
	w.close()

	res := runResult{Correct: e.failed == 0 && e.attempted > 0, Attempted: e.attempted, Failed: e.failed, Metrics: metricsOut}
	detail := runDetail{Workload: def.name, Trace: traced, Host: stamp(seed), Result: res, Closure: e.closure}
	for _, r := range e.rows {
		detail.Rows = append(detail.Rows, rowSummary{Name: r.name, Headline: r.headline, Samples: len(r.ms),
			P50MS: median(r.ms), P95MS: percentile(r.ms, 95)})
	}
	printDetail(&detail, traced)
	if out != "" {
		if err := writeJSON(out, &detail); err != nil {
			fatal("write %s: %v", out, err)
		}
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printDetail prints every row and every metric by name with its unit.
func printDetail(d *runDetail, traced bool) {
	h := d.Host
	fmt.Printf("workload %s  seed %d  nproc %d  GOMAXPROCS %d  %s  %s  commit %s\n",
		d.Workload, h.Seed, h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Commit)
	fmt.Printf("%-28s %8s %12s %12s\n", "row", "samples", "p50_ms", "p95_ms")
	for _, r := range d.Rows {
		mark := " "
		if r.Headline {
			mark = "*"
		}
		fmt.Printf("%s%-27s %8d %12.4f %12.4f\n", mark, r.Name, r.Samples, r.P50MS, r.P95MS)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		if traced && !measuredBy(m, d.Workload) {
			continue // reads 0 here: another workload measures it
		}
		fmt.Printf("%-32s %14.6g %s\n", m.name, d.Result.Metrics[m.name].Value, m.unit)
	}
	fmt.Printf("attempted %d  failed %d\n", d.Result.Attempted, d.Result.Failed)
}

// peakRSSMB reads VmHWM, the process's peak resident set. Each
// workload runs in its own process, so peaks do not leak across them.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
