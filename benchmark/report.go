package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// metricSeries is one metric over the runs of a report.
type metricSeries struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newSeries(unit string, values []float64) metricSeries {
	q1, q3 := quartiles(values)
	return metricSeries{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3}
}

// workloadReport is every run of one workload.
type workloadReport struct {
	EndToEnd  map[string]metricSeries `json:"end_to_end"`
	PerLayer  map[string]metricSeries `json:"per_layer,omitempty"`
	Rows      []rowSummary            `json:"rows"` // of the last untraced run
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	FailRatio float64                 `json:"fail_ratio"`
}

// closureLine is the "layers add up" check of one paper-dt or
// sched-dyn row: what the rt-fine unit costs times the row's counted
// events, plus the row's own kernel+compute time, leave unexplained.
type closureLine struct {
	Workload         string  `json:"workload"`
	Row              string  `json:"row"`
	WallMS           float64 `json:"wall_ms"`
	ExecMS           float64 `json:"exec_ms"`
	RuntimeMS        float64 `json:"runtime_ms"`
	UnexplainedShare float64 `json:"unexplained_share"`
}

type report struct {
	Host      hostStamp                  `json:"host"`
	Seconds   int                        `json:"run_seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Closure   []closureLine              `json:"closure,omitempty"`
}

// runChild runs one workload once in a fresh process (so peak RSS
// does not leak across workloads) and returns its detail.
func runChild(name string, seed int64, seconds int, traced bool, outDir string) (*runDetail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", name, os.Getpid()))
	defer os.Remove(tmp)
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", t, "-out", tmp, "-outdir", outDir)
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", name, err, out)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		return nil, err
	}
	var d runDetail
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// runAll runs every workload runs times untraced (and once traced when
// asked), prints every metric by name with its unit, and writes the
// report. It exits non-zero when any operation failed.
func runAll(seed int64, seconds, runs int, traced bool, out, outDir string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	loadSize()
	rep := report{Host: stamp(seed), Seconds: seconds, Runs: runs, Workloads: map[string]*workloadReport{}}
	closure := map[string][]closureRow{}
	code := 0
	for _, def := range workloadDefs {
		wr := &workloadReport{EndToEnd: map[string]metricSeries{}}
		rep.Workloads[def.name] = wr
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			d, err := runChild(def.name, seed, seconds, false, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
				continue
			}
			for name, m := range d.Result.Metrics {
				values[name] = append(values[name], m.Value)
			}
			wr.Rows = d.Rows
			wr.Attempted += d.Result.Attempted
			wr.Failed += d.Result.Failed
		}
		for _, m := range endToEnd {
			wr.EndToEnd[m.name] = newSeries(m.unit, values[m.name])
		}
		if traced {
			d, err := runChild(def.name, seed, seconds, true, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			} else {
				wr.PerLayer = map[string]metricSeries{}
				for _, m := range perLayer {
					if measuredBy(m, def.name) {
						wr.PerLayer[m.name] = newSeries(m.unit, []float64{d.Result.Metrics[m.name].Value})
					}
				}
				wr.Attempted += d.Result.Attempted
				wr.Failed += d.Result.Failed
				closure[def.name] = d.Closure
			}
		}
		if wr.Attempted > 0 {
			wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
		}
		if wr.Failed > 0 {
			code = 1
		}
		printWorkload(def.name, wr)
	}
	if rt := rep.Workloads["rt-fine"]; traced && rt != nil && rt.PerLayer != nil {
		rep.Closure = closureLines(closure, rt.PerLayer)
		for _, c := range rep.Closure {
			fmt.Printf("closure %-10s %-22s wall %9.3f ms  exec %9.3f ms  runtime %7.3f ms  unexplained_share %6.3f\n",
				c.Workload, c.Row, c.WallMS, c.ExecMS, c.RuntimeMS, c.UnexplainedShare)
		}
	}
	if out != "" {
		if err := writeJSON(out, &rep); err != nil {
			fatal("write %s: %v", out, err)
		}
	}
	return code
}

func measuredBy(m metricDef, workload string) bool {
	return m.measuredOn == "all" || strings.Contains(" "+m.measuredOn+" ", " "+workload+" ")
}

func printWorkload(name string, wr *workloadReport) {
	fmt.Printf("== %s  attempted %d  failed %d  fail_ratio %g\n", name, wr.Attempted, wr.Failed, wr.FailRatio)
	for _, m := range endToEnd {
		s := wr.EndToEnd[m.name]
		fmt.Printf("  %-30s %14.6g %-5s [q1 %.6g, q3 %.6g, n %d]\n", m.name, s.Median, s.Unit, s.Q1, s.Q3, len(s.Values))
	}
	for _, m := range perLayer {
		if s, ok := wr.PerLayer[m.name]; ok {
			fmt.Printf("  %-30s %14.6g %s\n", m.name, s.Median, s.Unit)
		}
	}
}

// closureLines prints, informationally, how much of each row's wall
// time the layers' own costs explain: the row's kernel+compute state
// time (its share of one member) plus rt-fine's unit costs times the
// events the row counted.
func closureLines(rows map[string][]closureRow, rtUnits map[string]metricSeries) []closureLine {
	unit := func(name string) float64 { return rtUnits[name].Median }
	var out []closureLine
	for _, wl := range []string{"paper-dt", "sched-dyn"} {
		for _, r := range rows[wl] {
			if r.WallNS <= 0 || r.Threads <= 0 {
				continue
			}
			t := float64(r.Threads)
			runtimeNS := float64(r.Events["regions"])*unit("rt.forkjoin_ns.tn") +
				float64(r.Events["barriers"])/t*unit("rt.barrier_ns")
			switch {
			case strings.Contains(r.Row, "/dynamic"):
				runtimeNS += float64(r.Events["chunks"]) / t * unit("rt.dynamic_claim_ns")
			case strings.Contains(r.Row, "/guided"):
				runtimeNS += float64(r.Events["chunks"]) / t * unit("rt.guided_claim_ns")
			}
			execNS := r.ExecNS / t
			out = append(out, closureLine{Workload: wl, Row: r.Row, WallMS: r.WallNS / 1e6, ExecMS: execNS / 1e6,
				RuntimeMS: runtimeNS / 1e6, UnexplainedShare: 1 - (execNS+runtimeNS)/r.WallNS})
		}
	}
	return out
}

// compareReports prints one row per (metric, workload): both medians,
// the relative worsening of B against A, the bound, and a verdict. It
// refuses reports from different hosts, and calls a pair unresolved
// when either report's own run-to-run spread exceeds the bound.
func compareReports(pathA, pathB string) int {
	load := func(p string) *report {
		data, err := os.ReadFile(p)
		if err != nil {
			fatal("%v", err)
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			fatal("%s: %v", p, err)
		}
		return &r
	}
	a, b := load(pathA), load(pathB)
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.CPU != b.Host.CPU {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: host stamps differ\n  A: nproc %d GOMAXPROCS %d %s\n  B: nproc %d GOMAXPROCS %d %s\n",
			a.Host.NProc, a.Host.GOMAXPROCS, a.Host.CPU, b.Host.NProc, b.Host.GOMAXPROCS, b.Host.CPU)
		return 2
	}
	fmt.Printf("%-13s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse_by", "bound", "verdict")
	code := 0
	for _, def := range workloadDefs {
		wa, wb := a.Workloads[def.name], b.Workloads[def.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			verdict, worse := compareSeries(m, sa, sb)
			if verdict == "regressed" {
				code = 1
			}
			fmt.Printf("%-13s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				def.name, m.name, sa.Median, sb.Median, 100*worse, 100*m.bound, verdict)
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Printf("%-13s %-12s %14d %14d %9s %7s  regressed\n", def.name, "failed", wa.Failed, wb.Failed, "", "0")
			code = 1
		}
	}
	return code
}

// compareSeries judges B against A for one metric: the relative
// worsening in the metric's own direction, against its bound.
func compareSeries(m metricDef, a, b metricSeries) (verdict string, worse float64) {
	if a.Median == 0 {
		return "unresolved", 0
	}
	worse = (b.Median - a.Median) / a.Median
	if m.better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a.Values) > m.bound || spread(b.Values) > m.bound:
		return "unresolved", worse
	case worse > m.bound:
		return "regressed", worse
	}
	return "ok", worse
}
