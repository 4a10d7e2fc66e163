package omp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pollCounts waits for the instance's pool to reach the wanted
// (idle, live) state; busy workers retire on release, so convergence
// is eventual.
func pollCounts(t *testing.T, r *Instance, wantIdle, wantLive int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := r.rt.DebugSnapshot()
		if snap.Pool != nil && snap.Pool.Idle == wantIdle && snap.Pool.Live == wantLive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not reach idle=%d live=%d: %+v", wantIdle, wantLive, snap.Pool)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInstanceCloseDuringParallelRegions closes an instance while
// several goroutines are mid-region: nothing deadlocks, every region
// completes its work, the pooled workers all retire (no leak), and the
// instance remains usable afterwards via spawned goroutines.
func TestInstanceCloseDuringParallelRegions(t *testing.T) {
	r := NewRuntime(WithDefaultNumThreads(4))

	const drivers, regionsPerDriver, iters = 4, 20, 2000
	var total atomic.Int64
	var wg sync.WaitGroup
	started := make(chan struct{})
	var startOnce sync.Once
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := r.rt.NewContext()
			for reg := 0; reg < regionsPerDriver; reg++ {
				err := (&TC{ctx: tc}).Parallel(func(tc *TC) {
					startOnce.Do(func() { close(started) })
					var local int64
					for i := 0; i < iters; i++ {
						local++
					}
					total.Add(local)
				}, WithNumThreads(4))
				if err != nil {
					t.Errorf("Parallel during close: %v", err)
					return
				}
			}
		}()
	}

	// Close mid-flight, concurrently with the drivers.
	<-started
	r.Close()
	wg.Wait()

	if want := int64(drivers * regionsPerDriver * 4 * iters); total.Load() != want {
		t.Errorf("work done = %d, want %d (regions lost iterations across Close)", total.Load(), want)
	}
	// Busy workers retire as their regions release: no pooled worker
	// may outlive the close.
	pollCounts(t, r, 0, 0)

	// The instance stays usable, spawning goroutines per region.
	var after atomic.Int64
	err := r.Parallel(func(tc *TC) { after.Add(1) }, WithNumThreads(4))
	if err != nil {
		t.Fatalf("Parallel after Close: %v", err)
	}
	if after.Load() != 4 {
		t.Errorf("post-close team ran %d threads, want 4", after.Load())
	}
	pollCounts(t, r, 0, 0) // and it must not repopulate the pool
}

// TestInstanceCloseRaces runs Close concurrently with itself and with
// in-flight regions; Close is idempotent and never wedges a region.
func TestInstanceCloseRaces(t *testing.T) {
	for round := 0; round < 5; round++ {
		r := NewRuntime(WithDefaultNumThreads(2))
		var wg sync.WaitGroup
		for d := 0; d < 3; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tc := r.rt.NewContext()
				for reg := 0; reg < 10; reg++ {
					_ = (&TC{ctx: tc}).Parallel(func(tc *TC) {}, WithNumThreads(2))
				}
			}()
		}
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Close()
			}()
		}
		wg.Wait()
		pollCounts(t, r, 0, 0)
	}
}
