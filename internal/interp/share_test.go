package interp_test

import (
	"bytes"
	"sync"
	"testing"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
	"github.com/omp4go/omp4go/internal/transform"
)

// sharedModule exercises every reader of the scope records: defs and
// lambdas executed inside parallel regions and tasks, closures over
// shared and private variables, and a reduction.
const sharedModule = `from omp4py import *

@omp
def work(n):
    total = 0
    scale = lambda v: v * 2
    with omp("parallel for num_threads(2) reduction(+:total)"):
        for i in range(n):
            def inc(k):
                return k + 1
            total += scale(inc(i))
    hits = [0]
    with omp("parallel num_threads(2)"):
        with omp("single"):
            for j in range(4):
                with omp("task firstprivate(j)"):
                    add = lambda a: a + j
                    with omp("critical"):
                        hits[0] = add(hits[0])
    return total, hits[0]
`

// TestInterpretersShareOneModule: two interpreters run one parsed and
// transformed module at the same time, in Hybrid with two threads
// each. The tree and its scope records are read-only once the transform
// returns, so they share it without a lock (run under -race).
func TestInterpretersShareOneModule(t *testing.T) {
	mod, err := minipy.Parse(sharedModule, "shared.py")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transform.Module(mod); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	outs := make([]bytes.Buffer, 2)
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := interp.New(interp.Options{Stdout: &outs[w], Layer: rt.LayerAtomic,
				Getenv: func(string) string { return "" }})
			if errs[w] = in.RunModule(mod); errs[w] != nil {
				return
			}
			for range 20 {
				v, err := in.CallFunction("work", int64(50))
				if err != nil {
					errs[w] = err
					return
				}
				if s := interp.Str(v); s != "(2550, 6)" {
					t.Errorf("interpreter %d: work(50) = %s, want (2550, 6)", w, s)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("interpreter %d: %v", w, err)
		}
	}
}
