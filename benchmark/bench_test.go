package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/rt"
)

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(xs, 25); got != 3 {
		t.Errorf("p25 = %v, want 3", got)
	}
	if got := percentile(xs, 90); math.Abs(got-8.2) > 1e-12 { // rank 3.6: 7 + 0.6*2
		t.Errorf("p90 = %v, want 8.2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{0, 4, 9}); math.Abs(got-6) > 1e-12 { // non-positive entries are left out
		t.Errorf("geomean(0, 4, 9) = %v, want 6", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1, 2, 4) = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 { // (8.25 - 2.75) / 5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSeedGivesSameInputs(t *testing.T) {
	a, b := generateModule("m", 40, 7), generateModule("m", 40, 7)
	if a.source != b.source {
		t.Error("same seed gave different generated modules")
	}
	if a.expect(2) != b.expect(2) {
		t.Error("same seed gave different probe answers")
	}
	if c := generateModule("m", 40, 8); c.source == a.source {
		t.Error("different seeds gave the same generated module")
	}
	ra, rb := genRequests(7, 300, 2), genRequests(7, 300, 2)
	for i := range ra {
		if !bytes.Equal(ra[i].body, rb[i].body) || ra[i].wantStdout != rb[i].wantStdout || ra[i].wantCode != rb[i].wantCode {
			t.Fatalf("same seed gave different request %d", i)
		}
	}
	classes := map[int]int{}
	for _, r := range ra {
		classes[r.class]++
	}
	for class := 0; class < numClasses; class++ {
		if classes[class] == 0 {
			t.Errorf("300 requests hold no %s request", classNames[class])
		}
	}
}

// Every template must load and compute its closed-form answer in both
// modes the cold-load workload uses; the workload's probe only calls
// a seeded few.
func TestGeneratedTemplates(t *testing.T) {
	g := generateModule("tmpl", len(templates), 3)
	e := newEnv(1, 2)
	for _, mode := range []bench.Mode{bench.Hybrid, bench.CompiledDT} {
		p, err := loadProgram(e, -1, 0, g.name, g.source, mode, nil)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if _, err := p.in.CallFunction("probe", int64(2)); err != nil {
			t.Fatalf("%s: probe: %v", mode, err)
		}
		// probe() left the team size at 2.
		for i, f := range g.funcs {
			v, err := p.in.CallFunction(f.name, int64(probeN))
			if err != nil {
				t.Errorf("%s template %d: %v", mode, i, err)
				continue
			}
			if got, ok := interp.AsInt(v); !ok || got != f.expect(probeN, 2) {
				t.Errorf("%s template %d: got %v, want %d\n%s", mode, i, v, f.expect(probeN, 2), f.source)
			}
		}
		p.close()
	}
}

func TestTriMatchesReference(t *testing.T) {
	// n=2, seed=0: i=0 adds 0; i=1 adds (31%97 + 48%97) * 0.5 = 39.5
	if got := triReference([]int64{2, 0}); got != 39.5 {
		t.Fatalf("triReference(2, 0) = %v, want 39.5", got)
	}
	e := newEnv(1, 2)
	p, err := loadProgram(e, -1, 0, "tri", triSource, bench.CompiledDT, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	args := []int64{60, 5}
	for i := range schedPolicies {
		if err := p.in.Runtime().SetSchedule(schedPolicies[i].sched); err != nil {
			t.Fatal(err)
		}
		got, err := p.call(2, args)
		if err != nil || got != triReference(args) {
			t.Errorf("%s: tri = %v, %v; want %v", schedPolicies[i].name, got, err, triReference(args))
		}
	}
}

func TestRTFineProgramsValidate(t *testing.T) {
	if fibRef(10) != 55 {
		t.Fatalf("fibRef(10) = %d, want 55", fibRef(10))
	}
	for _, layer := range []rt.Layer{rt.LayerAtomic, rt.LayerMutex} {
		s := newRTSet(layer, nil)
		for _, p := range rtPrograms {
			for _, threads := range []int{1, 2} {
				if _, err := p.run(s, threads); err != nil {
					t.Errorf("%s on %d threads: %v", p.name, threads, err)
				}
			}
		}
		s.r.Shutdown()
	}
}

func TestTracerSelfTimeAndSplit(t *testing.T) {
	tr := newTracer()
	tr.on = true
	tr.spans = []span{
		{Name: "op", Layer: layerBench, Start: 0, End: 100, Parent: -1},
		{Name: "parse", Layer: layerMinipy, Start: 10, End: 40, Parent: 0},
		{Name: "call", Layer: layerCompile, Start: 40, End: 90, Parent: 0, split: map[string]int64{layerRT: 20}},
		{Name: "other", Layer: layerServe, Start: 0, End: 50, Parent: -1, Outside: true},
	}
	self := tr.selfByLayer()
	want := map[string]int64{layerBench: 20, layerMinipy: 30, layerCompile: 30, layerRT: 20}
	for l, ns := range want {
		if self[l] != ns {
			t.Errorf("self[%s] = %d, want %d", l, self[l], ns)
		}
	}
	if _, ok := self[layerServe]; ok {
		t.Error("a span marked Outside entered the layer shares")
	}
	if got := tr.layerShares()[layerMinipy]; got != 0.3 {
		t.Errorf("minipy share = %v, want 0.3", got)
	}
	off := newTracer()
	if id := off.begin(layerRT, "x", -1, 0, 0); id != -1 {
		t.Errorf("begin with tracing off = %d, want -1", id)
	}
	off.add(layerRT, "x", time.Millisecond, nil)
	if len(off.spans) != 0 {
		t.Error("tracer recorded spans while off")
	}
}

func TestCompareSeries(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := func(m float64) metricSeries { return newSeries("", []float64{m * 0.99, m, m * 1.01}) }
	if v, _ := compareSeries(lower, steady(100), steady(105)); v != "ok" {
		t.Errorf("5%% slower against a 10%% bound: %s, want ok", v)
	}
	if v, w := compareSeries(lower, steady(100), steady(120)); v != "regressed" || math.Abs(w-0.2) > 1e-9 {
		t.Errorf("20%% slower: %s by %v, want regressed by 0.2", v, w)
	}
	if v, _ := compareSeries(higher, steady(100), steady(80)); v != "regressed" {
		t.Errorf("20%% less throughput: %s, want regressed", v)
	}
	if v, _ := compareSeries(higher, steady(100), steady(130)); v != "ok" {
		t.Errorf("more throughput: %s, want ok", v)
	}
	noisy := newSeries("", []float64{80, 100, 125})
	if v, _ := compareSeries(lower, noisy, steady(100)); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", v)
	}
}

// BENCHMARK.json must list exactly what the harness emits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads listed, harness has %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d is %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, harness emits %d", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		name("end-to-end metric", m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v, harness has %+v", i, m, d)
		}
		if !unitRe.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, harness emits %d (at most 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		name("per-layer metric", m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRe.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d is %+v, harness has %+v", i, m, d)
		}
		if d.measuredOn != "all" {
			for _, w := range regexp.MustCompile(` `).Split(d.measuredOn, -1) {
				if findWorkload(w) == nil {
					t.Errorf("per-layer metric %s is measured on unknown workload %q", d.name, w)
				}
			}
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	// 4 + 22 runs per workload, set-up and builds included, in 3420 s.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*(float64(spec.RunSeconds)+8) > 3420 {
		t.Errorf("%d runs of %d s leave under 8 s each for set-up", runs, spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}
