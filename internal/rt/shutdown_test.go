package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitPool polls the pool until it reaches (idle, live) or the
// deadline passes.
func waitPool(t *testing.T, r *Runtime, wantIdle, wantLive int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		idle, live := r.pool.counts()
		if idle == wantIdle && live == wantLive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool stuck at idle=%d live=%d, want %d/%d", idle, live, wantIdle, wantLive)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownUnderConcurrentRegions calls Shutdown while several
// initial threads are forking regions: no deadlock, no lost
// iterations, every pooled worker retires, and the runtime keeps
// serving regions (spawn-per-region) afterwards.
func TestShutdownUnderConcurrentRegions(t *testing.T) {
	r := NewWithEnv(LayerAtomic, func(string) string { return "" })

	const drivers, regions, teamSize = 4, 25, 3
	var total atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := r.NewContext()
			for reg := 0; reg < regions; reg++ {
				err := r.Parallel(ctx, ParallelOpts{NumThreads: teamSize}, func(c *Context) error {
					once.Do(func() { close(started) })
					total.Add(1)
					return nil
				})
				if err != nil {
					t.Errorf("Parallel: %v", err)
					return
				}
			}
		}()
	}
	<-started
	r.Shutdown()
	wg.Wait()

	if want := int64(drivers * regions * teamSize); total.Load() != want {
		t.Errorf("threads run = %d, want %d", total.Load(), want)
	}
	waitPool(t, r, 0, 0)

	// Still usable after Shutdown.
	ctx := r.NewContext()
	var after atomic.Int64
	if err := r.Parallel(ctx, ParallelOpts{NumThreads: teamSize}, func(c *Context) error {
		after.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("Parallel after Shutdown: %v", err)
	}
	if after.Load() != teamSize {
		t.Errorf("post-shutdown team = %d, want %d", after.Load(), teamSize)
	}
	waitPool(t, r, 0, 0)
}

// TestShutdownLeavesNoWorkerGoroutines: after Shutdown and region
// join, the worker goroutines are gone (bounded settle, since exits
// are asynchronous).
func TestShutdownLeavesNoWorkerGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewWithEnv(LayerAtomic, func(string) string { return "" })
	ctx := r.NewContext()
	for i := 0; i < 10; i++ {
		if err := r.Parallel(ctx, ParallelOpts{NumThreads: 4}, func(c *Context) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, live := r.pool.counts(); live == 0 {
		t.Fatal("expected live pooled workers before Shutdown")
	}
	r.Shutdown()
	waitPool(t, r, 0, 0)

	deadline := time.Now().Add(5 * time.Second)
	for {
		// Small slack: unrelated runtime goroutines may come and go.
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d (pool workers leaked)", runtime.NumGoroutine(), before+2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
