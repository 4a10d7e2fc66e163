package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The cold-load generator: a module of nFuncs @omp functions drawn
// from templates that between them use every directive family the
// transform handles (parallel, for with each schedule kind, sections,
// single, master, critical, atomic, barrier, ordered, task, taskwait,
// task depend, taskloop, taskgroup, and the data-sharing and
// reduction clauses). Each function returns an int with a closed-form
// expected value, so one probe call validates the load.

// genFunc is one generated function: its source and the value
// f(n) must return on a team of threads members.
type genFunc struct {
	name   string
	source string
	expect func(n, threads int64) int64
}

// template builds function number i with small seeded constants.
type template func(i int, a, b, c int64) genFunc

func tri(n int64) int64 { return n * (n - 1) / 2 }

// inOrderSum is what the templates that append k*a in order k = 0..n-1
// return: each element weighted by its 1-based position.
func inOrderSum(n, a int64) int64 {
	s := int64(0)
	for k := int64(0); k < n; k++ {
		s += (k + 1) * k * a
	}
	return s
}

var schedClauses = []string{"", "schedule(static)", "schedule(static, 4)", "schedule(dynamic, 3)", "schedule(guided)", "schedule(auto)"}

var templates = []template{
	// parallel for + reduction(+) under each schedule kind; typed, so
	// CompiledDT specializes (and kernels the static ones).
	func(i int, a, b, c int64) genFunc {
		sched := schedClauses[int(c)%len(schedClauses)]
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n: int) -> int:
    total: int = 0
    with omp("parallel for reduction(+:total) %s"):
        for k in range(n):
            total += k * %d + %d
    return total
`, i, sched, a, b), expect: func(n, _ int64) int64 { return a*tri(n) + b*n }}
	},
	// max/min reductions.
	func(i int, a, b, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    hi = -1
    lo = 10 ** 9
    with omp("parallel for reduction(max:hi) reduction(min:lo)"):
        for k in range(n):
            v = (k * %d + %d) %% 101
            hi = max(hi, v)
            lo = min(lo, v)
    return hi * 1000 + lo
`, i, a, b), expect: func(n, _ int64) int64 {
			hi, lo := int64(-1), int64(1e9)
			for k := int64(0); k < n; k++ {
				v := (k*a + b) % 101
				hi, lo = max(hi, v), min(lo, v)
			}
			return hi*1000 + lo
		}}
	},
	// parallel region: for nowait, explicit barrier, single.
	func(i int, a, _, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    out = [0] * n
    box = [0]
    with omp("parallel"):
        with omp("for nowait"):
            for k in range(n):
                out[k] = k + %d
        omp("barrier")
        with omp("single"):
            s = 0
            for k in range(n):
                s += out[k]
            box[0] = s
    return box[0]
`, i, a), expect: func(n, _ int64) int64 { return tri(n) + a*n }}
	},
	// named critical inside a worksharing loop.
	func(i int, a, _, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    acc = [0]
    with omp("parallel for"):
        for k in range(n):
            with omp("critical(c%d)"):
                acc[0] += %d
    return acc[0]
`, i, i, a), expect: func(n, _ int64) int64 { return a * n }}
	},
	// atomic under a dynamic schedule.
	func(i int, a, _, c int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    cnt = [0]
    with omp("parallel for schedule(dynamic, %d)"):
        for k in range(n):
            with omp("atomic"):
                cnt[0] += %d
    return cnt[0]
`, i, c+1, a), expect: func(n, _ int64) int64 { return a * n }}
	},
	// parallel sections.
	func(i int, a, b, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    r = [0, 0, 0]
    with omp("parallel sections"):
        with omp("section"):
            r[0] = %d * n
        with omp("section"):
            r[1] = %d + n
        with omp("section"):
            r[2] = %d
    return r[0] + r[1] + r[2]
`, i, a, b, a+b), expect: func(n, _ int64) int64 { return a*n + b + n + a + b }}
	},
	// master, barrier, unnamed critical: depends on the team size.
	func(i int, a, b, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    box = [0]
    with omp("parallel"):
        with omp("master"):
            box[0] = n * %d
        omp("barrier")
        with omp("critical"):
            box[0] += %d
    return box[0]
`, i, a, b), expect: func(n, t int64) int64 { return n*a + b*t }}
	},
	// recursive tasks with an if clause and taskwait (Fig. 4's shape).
	func(i int, a, _, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def g%d(m):
    if m <= 1:
        return m
    x = 0
    y = 0
    with omp("task if(m > 5)"):
        x = g%d(m - 1)
    with omp("task if(m > 5)"):
        y = g%d(m - 2)
    omp("taskwait")
    return x + y

@omp
def f%d(n):
    box = [0]
    with omp("parallel"):
        with omp("single"):
            box[0] = g%d(7 + n %% 3) + %d
    return box[0]
`, i, i, i, i, i, a), expect: func(n, _ int64) int64 { return fibRef(int(7+n%3)) + a }}
	},
	// a task depend(inout) chain: submission order is execution order.
	func(i int, a, _, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    out = []
    with omp("parallel"):
        with omp("single"):
            k = 0
            while k < n:
                with omp("task depend(inout: q) firstprivate(k)"):
                    out.append(k * %d)
                k += 1
            omp("taskwait")
    s = 0
    for p in range(len(out)):
        s += (p + 1) * out[p]
    return s
`, i, a), expect: func(n, _ int64) int64 { return inOrderSum(n, a) }}
	},
	// taskloop with a grainsize.
	func(i int, a, _, c int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    total = [0]
    with omp("parallel"):
        with omp("single"):
            with omp("taskloop grainsize(%d)"):
                for k in range(n):
                    with omp("critical"):
                        total[0] += k + %d
    return total[0]
`, i, c+2, a), expect: func(n, _ int64) int64 { return tri(n) + a*n }}
	},
	// taskgroup waits for the grandchild.
	func(i int, a, b, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    box = [0]
    with omp("parallel"):
        with omp("single"):
            with omp("taskgroup"):
                with omp("task"):
                    with omp("task"):
                        box[0] = n + %d
            box[0] += %d
    return box[0]
`, i, a, b), expect: func(n, _ int64) int64 { return n + a + b }}
	},
	// lastprivate.
	func(i int, a, _, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    last = -1
    with omp("parallel for lastprivate(last)"):
        for k in range(n):
            last = k * %d
    return last
`, i, a), expect: func(n, _ int64) int64 { return (n - 1) * a }}
	},
	// collapse(2) with a reduction.
	func(i int, a, _, c int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    total = 0
    with omp("parallel for collapse(2) reduction(+:total) schedule(dynamic, 3)"):
        for x in range(n):
            for y in range(%d):
                total += x * y + %d
    return total
`, i, c+2, a), expect: func(n, _ int64) int64 { return tri(n)*tri(c+2) + a*n*(c+2) }}
	},
	// firstprivate with an if clause.
	func(i int, a, _, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    base = %d
    out = [0] * n
    with omp("parallel for firstprivate(base) if(n > 4)"):
        for k in range(n):
            out[k] = base + k
    s = 0
    for k in range(n):
        s += out[k]
    return s
`, i, a), expect: func(n, _ int64) int64 { return a*n + tri(n) }}
	},
	// single copyprivate broadcasts to the team.
	func(i int, a, _, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    res = [0]
    v = 0
    with omp("parallel private(v)"):
        with omp("single copyprivate(v)"):
            v = n * %d
        with omp("critical(r%d)"):
            res[0] += v
    return res[0]
`, i, a, i), expect: func(n, t int64) int64 { return n * a * t }}
	},
	// ordered inside a dynamic loop.
	func(i int, a, _, _ int64) genFunc {
		return genFunc{source: fmt.Sprintf(`
@omp
def f%d(n):
    out = []
    with omp("parallel for ordered schedule(dynamic, 2)"):
        for k in range(n):
            with omp("ordered"):
                out.append(k * %d)
    s = 0
    for p in range(len(out)):
        s += (p + 1) * out[p]
    return s
`, i, a), expect: func(n, _ int64) int64 { return inOrderSum(n, a) }}
	},
}

// genModule is one generated module and the answer its probe returns.
type genModule struct {
	name   string
	source string
	funcs  []genFunc
	expect func(threads int64) int64
}

const probeCalls = 12 // functions the probe calls
const probeN = 9      // the n it passes them

// generateModule builds a module of nFuncs functions from seed: the
// same seed gives the same bytes. probe(threads) calls a seeded
// choice of probeCalls functions and returns the sum of their results.
func generateModule(name string, nFuncs int, seed int64) genModule {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("from omp4py import *\n")
	funcs := make([]genFunc, nFuncs)
	for i := range funcs {
		// The first len(templates) functions use each template once,
		// so every module has every directive family.
		t := i
		if i >= len(templates) {
			t = rng.Intn(len(templates))
		}
		f := templates[t%len(templates)](i, 1+rng.Int63n(9), rng.Int63n(50), rng.Int63n(6))
		f.name = fmt.Sprintf("f%d", i)
		funcs[i] = f
		b.WriteString(f.source)
	}
	picks := make([]int, probeCalls)
	for k := range picks {
		picks[k] = rng.Intn(nFuncs)
	}
	b.WriteString("\ndef probe(threads):\n    omp_set_num_threads(threads)\n    s = 0\n")
	for _, p := range picks {
		fmt.Fprintf(&b, "    s += %s(%d)\n", funcs[p].name, probeN)
	}
	b.WriteString("    return s\n")
	return genModule{name: name, source: b.String(), funcs: funcs, expect: func(threads int64) int64 {
		s := int64(0)
		for _, p := range picks {
			s += funcs[p].expect(probeN, threads)
		}
		return s
	}}
}
