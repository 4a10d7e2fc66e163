package compile_test

import (
	"math"
	"testing"

	"github.com/omp4go/omp4go/internal/bench"
)

// irBenchIters is the analytic count of innermost-body executions of
// one run: what ns/iter is taken over.
func irBenchIters(name string, a []int64) float64 {
	n := float64(a[0])
	switch name {
	case "pi":
		return n
	case "fft":
		return n / 2 * math.Round(math.Log2(n))
	case "jacobi":
		return float64(a[1]) * (n*n + n)
	case "lu":
		return (n - 1) * n * (2*n - 1) / 6
	case "md":
		return float64(a[1]+1)*n*n + float64(2*a[1]+1)*n
	}
	return 0
}

// BenchmarkTypedLoopIR reproduces the layered benchmark's native gap
// without the harness: the jacobi row-dot, lu row-update, md
// pair-force, fft butterfly and pi bodies at one thread, as typed loop
// IR, as the closure chain (kernels off) and as the hand-written
// internal/pyomp kernel, each reported in ns per innermost iteration.
func BenchmarkTypedLoopIR(b *testing.B) {
	sizes := map[string][]int64{
		"jacobi": {320, 8, 1}, "lu": {88, 1}, "md": {200, 3, 1}, "fft": {1 << 13, 1}, "pi": {800_000},
	}
	for _, name := range []string{"jacobi", "lu", "md", "fft", "pi"} {
		args := sizes[name]
		for _, form := range []struct {
			name string
			mode bench.Mode
			off  bool
		}{{"ir", bench.CompiledDT, false}, {"closures", bench.CompiledDT, true}, {"pyomp", bench.PyOMP, false}} {
			b.Run(name+"/"+form.name, func(b *testing.B) {
				var secs float64
				for i := 0; i < b.N; i++ {
					res, err := bench.Run(form.mode, name, bench.RunConfig{Threads: 1, Args: args, KernelsOff: form.off})
					if err != nil {
						b.Fatal(err)
					}
					secs += res.Seconds
				}
				b.ReportMetric(secs*1e9/(float64(b.N)*irBenchIters(name, args)), "ns/iter")
			})
		}
	}
}
