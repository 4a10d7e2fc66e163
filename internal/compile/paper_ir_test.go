package compile_test

import (
	"testing"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/compile"
)

// TestPaperLoopsRunAsIR: every program of the paper-dt workload must
// run its hot loops as typed loop IR — the worksharing loop and at
// least one loop nested in it or serial beside it (jacobi's row dot
// product, lu's row update, md's pair loop, fft's butterflies and
// bit-reversal while; pi has the one loop) — and none of them with
// kernels off. A lowering that silently stops covering an inner loop,
// or an entry guard that starts failing, shows up here as a count.
// (The test lives here rather than beside the kernel matrix in
// internal/bench because the IR-entry hook is this package's test-only
// CountIRLoops.)
func TestPaperLoopsRunAsIR(t *testing.T) {
	args := map[string][]int64{"fft": {1 << 8, 42}, "jacobi": {48, 5, 42}, "lu": {48, 42}, "md": {32, 2, 42}, "pi": {50_000}}
	wantLoops := map[string]int64{"fft": 4, "jacobi": 4, "lu": 3, "md": 3, "pi": 1}
	for name, want := range wantLoops {
		for _, off := range []bool{false, true} {
			cfg := bench.RunConfig{Threads: 2, Args: args[name], KernelsOff: off}
			var err error
			got := compile.CountIRLoops(func() { _, err = bench.Validate(bench.CompiledDT, name, cfg) })
			switch {
			case err != nil:
				t.Fatalf("%s (kernels off: %v): %v", name, off, err)
			case off && got != 0:
				t.Errorf("%s: %d loops ran as IR with kernels off", name, got)
			case !off && got < want:
				t.Errorf("%s: %d loops ran as IR, want at least %d", name, got, want)
			}
		}
	}
}
