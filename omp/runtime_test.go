package omp

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestNewRuntimeInstance covers the constructed-runtime surface:
// option application and independence from the process-wide default
// runtime.
func TestNewRuntimeInstance(t *testing.T) {
	r := NewRuntime(WithWaitPolicy("active"), WithDefaultNumThreads(3))
	defer r.Close()
	if got := r.GetWaitPolicy(); got != "active" {
		t.Errorf("wait policy = %q, want active", got)
	}
	var ran atomic.Int32
	if err := r.Parallel(func(tc *TC) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Errorf("default team ran %d threads, want 3", ran.Load())
	}

	// The default runtime's ICVs are untouched by instance options.
	if got := GetWaitPolicy(); got != "passive" {
		t.Errorf("default runtime wait policy = %q, want passive", got)
	}
}

// TestRuntimeUsableAfterClose: Close retires pool workers but the
// runtime keeps working on the spawn fallback.
func TestRuntimeUsableAfterClose(t *testing.T) {
	r := NewRuntime(WithDefaultNumThreads(2))
	if err := r.Parallel(func(tc *TC) {}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	var ran atomic.Int32
	if err := r.Parallel(func(tc *TC) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Errorf("post-Close region ran %d threads, want 2", ran.Load())
	}
}

// TestPackageWaitPolicy covers the package-level ICV routines.
func TestPackageWaitPolicy(t *testing.T) {
	defer func() {
		if err := SetWaitPolicy("passive"); err != nil {
			t.Fatal(err)
		}
	}()
	if err := SetWaitPolicy("active"); err != nil {
		t.Fatal(err)
	}
	if got := GetWaitPolicy(); got != "active" {
		t.Errorf("wait policy = %q, want active", got)
	}
	if err := SetWaitPolicy("busy"); err == nil {
		t.Error("SetWaitPolicy(busy) succeeded, want error")
	}
}

// TestNestedConcurrentParallelReduce is the regression test for the
// fixed reduction-slot name: concurrent and nested ParallelReduce
// regions each merge under their own slot, so totals never cross
// regions.
func TestNestedConcurrentParallelReduce(t *testing.T) {
	SetNested(true)
	defer SetNested(false)

	// Concurrent top-level reductions from plain goroutines.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := int64(g+1) * 1000 * 999 / 2
			got, err := ParallelReduce(0, 1000, int64(0), Sum[int64],
				func(tc *TC, i int, acc int64) int64 {
					return acc + int64(i)*int64(g+1)
				}, WithNumThreads(4))
			if err != nil {
				errs[g] = err
				return
			}
			if got != want {
				t.Errorf("goroutine %d: sum = %d, want %d", g, got, want)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	// Reductions fired from inside an enclosing parallel region.
	var badInner atomic.Int32
	err := Parallel(func(tc *TC) {
		got, err := ParallelReduce(0, 100, 0, Sum[int],
			func(_ *TC, i int, acc int) int { return acc + i },
			WithNumThreads(2))
		if err != nil || got != 100*99/2 {
			badInner.Add(1)
		}
	}, WithNumThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	if badInner.Load() != 0 {
		t.Errorf("%d inner reductions wrong", badInner.Load())
	}
}

// TestUnifiedTaskOptions: WithIf and WithFinal drive Task directly
// (the unified clause surface; the old TaskIf/TaskFinal aliases are
// gone).
func TestUnifiedTaskOptions(t *testing.T) {
	run := func(opt Option) int32 {
		var undeferredOn atomic.Int32
		err := Parallel(func(tc *TC) {
			if tc.ThreadNum() != 0 {
				return
			}
			if err := tc.Task(func(tt *TC) {
				undeferredOn.Store(int32(tt.ThreadNum()) + 1)
			}, opt); err != nil {
				t.Error(err)
			}
			if err := tc.TaskWait(); err != nil {
				t.Error(err)
			}
		}, WithNumThreads(2))
		if err != nil {
			t.Fatal(err)
		}
		return undeferredOn.Load()
	}
	// An if(false) task is undeferred: it runs on the submitting
	// thread (thread 0 → stored value 1).
	if got := run(WithIf(false)); got != 1 {
		t.Errorf("WithIf(false) task ran on thread %d, want 0", got-1)
	}

	// final(true): descendants execute inline.
	var order []int
	err := Parallel(func(tc *TC) {
		if tc.ThreadNum() != 0 {
			return
		}
		if err := tc.Task(func(tt *TC) {
			order = append(order, 1)
			if err := tt.Task(func(*TC) { order = append(order, 2) }, WithFinal(true)); err != nil {
				t.Error(err)
			}
			order = append(order, 3)
		}, WithFinal(true), WithIf(false)); err != nil {
			t.Error(err)
		}
		if err := tc.TaskWait(); err != nil {
			t.Error(err)
		}
	}, WithNumThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("final-task execution order = %v, want [1 2 3]", order)
	}
}
