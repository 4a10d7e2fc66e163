package bench

import (
	"math"
	"testing"
)

// numericalNames are the seven Fig. 5 benchmarks of the paper, the
// subject of the compiled-kernel differential matrix.
var numericalNames = []string{"fft", "jacobi", "lu", "md", "pi", "qsort", "bfs"}

// taskSchedEnv pins OMP4GO_TASK_SCHED so the matrix covers both team
// task schedulers (work-stealing deques and the shared list queue).
func taskSchedEnv(mode string) func(string) string {
	return func(k string) string {
		if k == "OMP4GO_TASK_SCHED" {
			return mode
		}
		return ""
	}
}

// TestKernelDifferentialMatrix runs every numerical benchmark in
// CompiledDT with kernels on, kernels off (the bridge baseline), and
// in the Hybrid interpreter tier, across 1/4/8 threads and both task
// schedulers. Single-threaded runs must be bit-identical across all
// three configurations (one member, one merge — no reduction-order
// freedom). Multi-threaded runs must agree within the benchmark's
// checksum tolerance: members merge their reduction partials in
// arrival order, so the last ULPs of a float sum legitimately vary
// between runs of the *same* configuration; the partition itself is
// identical (see rt's TestStaticBoundsMatchesLoopBounds and the
// compile tier's kernel tests for the exact-partition guarantees).
// Every kernels-on run of a program with static worksharing loops runs
// some of them as kernels; qsort and bfs, and every kernels-off or
// Hybrid run, run none.
func TestKernelDifferentialMatrix(t *testing.T) {
	for _, name := range numericalNames {
		b := Registry[name]
		for _, sched := range []string{"steal", "list"} {
			for _, threads := range []int{1, 4, 8} {
				cfg := RunConfig{Threads: threads, Args: smallArgs[name], Getenv: taskSchedEnv(sched)}

				run := func(label string, c RunConfig, mode Mode, wantKernels bool) (float64, bool) {
					c.CollectMetrics = true
					res, err := Run(mode, name, c)
					if err != nil {
						t.Errorf("%s/%s/%dt/%s: %v", name, label, threads, sched, err)
						return 0, false
					}
					if n := res.Metrics.KernelLoops; n > 0 != wantKernels {
						t.Errorf("%s/%s/%dt/%s: %d kernel loops, want kernels %v", name, label, threads, sched, n, wantKernels)
					}
					return res.Checksum, true
				}
				kOn, ok1 := run("kernels-on", cfg, CompiledDT, name != "qsort" && name != "bfs")
				off := cfg
				off.KernelsOff = true
				kOff, ok2 := run("kernels-off", off, CompiledDT, false)
				hyb, ok3 := run("hybrid", cfg, Hybrid, false)
				if !ok1 || !ok2 || !ok3 {
					continue
				}

				if threads == 1 {
					if kOn != kOff || kOn != hyb {
						t.Errorf("%s/1t/%s: single-thread results differ: kernels-on=%v kernels-off=%v hybrid=%v",
							name, sched, kOn, kOff, hyb)
					}
					continue
				}
				for _, pair := range [][2]float64{{kOn, kOff}, {kOn, hyb}} {
					if !matrixAgree(pair[0], pair[1], b.Tolerance) {
						t.Errorf("%s/%dt/%s: results diverge beyond tolerance %g: kernels-on=%v kernels-off=%v hybrid=%v",
							name, threads, sched, b.Tolerance, kOn, kOff, hyb)
						break
					}
				}
			}
		}
	}
}

func matrixAgree(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}
