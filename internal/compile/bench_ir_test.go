package compile_test

import (
	"math"
	"testing"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/interp"
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

// textbookNative is the plain-Go loop of a textbook shape
// (textbook_test.go) over the same data: the floor its IR row is read
// against.
var textbookNative = map[string]func(n, k int64, a, b, out []float64) float64{
	"dot": func(n, k int64, a, b, out []float64) float64 {
		total := 0.0
		for i := int64(0); i < n; i++ {
			total += a[i] * b[i]
		}
		return total
	},
	"saxpy": func(n, k int64, a, b, out []float64) float64 {
		alpha := 0.5 * float64(k)
		for i := int64(0); i < n; i++ {
			out[i] = alpha*a[i] + out[i]
		}
		return out[n-1]
	},
	"int-reduce-captured": func(n, k int64, a, b, out []float64) float64 {
		total := int64(0)
		for i := int64(0); i < n; i++ {
			total += (i * k) % 7
		}
		return float64(total)
	},
}

var benchSink float64

// BenchmarkTypedLoopIR reproduces the layered benchmark's native gap
// without the harness: the jacobi row-dot, lu row-update, md
// pair-force, fft butterfly and pi bodies at one thread, as typed loop
// IR, as the closure chain (kernels off) and as the hand-written
// internal/pyomp kernel, each reported in ns per innermost iteration.
// The dot, saxpy and int-reduce-captured rows are textbook shapes —
// a parallel for over a function's annotated parameters, locals and
// lists — as IR, as the closure chain and as a plain Go loop.
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
	const n = 400_000
	for _, shape := range textbookShapes {
		native := textbookNative[shape.name]
		if native == nil {
			continue
		}
		for _, form := range []string{formIR, formClosures} {
			b.Run(shape.name+"/"+form, func(b *testing.B) {
				call, args := loadForm(b, shape.source(1), form), textbookArgs(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := call(args...); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/iter")
			})
		}
		b.Run(shape.name+"/native", func(b *testing.B) {
			args := textbookArgs(n)
			floats := func(v interp.Value) []float64 {
				l := v.(*interp.List)
				out := make([]float64, l.Len())
				for q := range out {
					out[q] = l.Get(q).(float64)
				}
				return out
			}
			a, c, out := floats(args[2]), floats(args[3]), floats(args[4])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += native(args[0].(int64), args[1].(int64), a, c, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/iter")
		})
	}
}
