package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memberGtids runs one region of n threads and returns the gtids of
// the non-master members (the threads pool workers execute).
func memberGtids(t *testing.T, r *Runtime, n int) map[int32]bool {
	t.Helper()
	var mu sync.Mutex
	gtids := make(map[int32]bool)
	err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: n}, func(c *Context) error {
		if c.GetThreadNum() != 0 {
			mu.Lock()
			gtids[c.gtid] = true
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	return gtids
}

// TestPoolGtidStability: non-master members carry the same worker
// gtids across consecutive regions — the stable thread-identity
// contract OMPT rings and recycled deques rely on. Members spawned
// because the pool is shut down get fresh identities every region.
func TestPoolGtidStability(t *testing.T) {
	const n, regions = 4, 5
	for _, l := range bothLayers {
		pooled := NewWithEnv(l, fakeEnv(nil))
		union := make(map[int32]bool)
		for i := 0; i < regions; i++ {
			for g := range memberGtids(t, pooled, n) {
				union[g] = true
			}
		}
		if len(union) != n-1 {
			t.Errorf("%v pooled: %d distinct member gtids over %d regions, want %d",
				l, len(union), regions, n-1)
		}
		pooled.Shutdown()

		union = make(map[int32]bool)
		for i := 0; i < regions; i++ {
			for g := range memberGtids(t, pooled, n) {
				union[g] = true
			}
		}
		if len(union) != (n-1)*regions {
			t.Errorf("%v spawned: %d distinct member gtids over %d regions, want %d",
				l, len(union), regions, (n-1)*regions)
		}
	}
}

// TestPoolSlotsReleased: when Parallel returns, every borrowed worker
// is back on the free list — no slot leaks.
func TestPoolSlotsReleased(t *testing.T) {
	for _, l := range bothLayers {
		r := NewWithEnv(l, fakeEnv(nil))
		for i := 0; i < 3; i++ {
			var ran atomic.Int32
			err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 6}, func(c *Context) error {
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("%v: %v", l, err)
			}
			if got := ran.Load(); got != 6 {
				t.Fatalf("%v: ran %d threads, want 6", l, got)
			}
			idle, total := r.pool.counts()
			if idle != total {
				t.Fatalf("%v region %d: %d idle != %d total — leaked pool slots", l, i, idle, total)
			}
			if total < 5 {
				t.Fatalf("%v region %d: total %d workers, want >= 5", l, i, total)
			}
		}
		r.Shutdown()
	}
}

// TestNestedParallelBothLayers covers nested regions across both sync
// layers: team sizes, ancestor thread numbers and active levels must
// be right in both, and the pool must hold no borrowed slots
// afterwards.
func TestNestedParallelBothLayers(t *testing.T) {
	for _, l := range bothLayers {
		r := NewWithEnv(l, fakeEnv(nil))
		r.SetNested(true)
		var inner atomic.Int32
		var badTeam, badAncestor, badLevel atomic.Int32
		err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 3}, func(outer *Context) error {
			outerNum := outer.GetThreadNum()
			if outer.GetNumThreads() != 3 {
				badTeam.Add(1)
			}
			return r.Parallel(outer, ParallelOpts{NumThreads: 2}, func(c *Context) error {
				inner.Add(1)
				if c.GetNumThreads() != 2 || c.GetTeamSize(1) != 3 {
					badTeam.Add(1)
				}
				if c.GetAncestorThreadNum(1) != outerNum {
					badAncestor.Add(1)
				}
				if c.GetActiveLevel() != 2 || c.GetLevel() != 2 {
					badLevel.Add(1)
				}
				return nil
			})
		})
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if got := inner.Load(); got != 6 {
			t.Errorf("%v: %d inner executions, want 6", l, got)
		}
		if badTeam.Load() != 0 || badAncestor.Load() != 0 || badLevel.Load() != 0 {
			t.Errorf("%v: team/ancestor/level mismatches: %d/%d/%d",
				l, badTeam.Load(), badAncestor.Load(), badLevel.Load())
		}
		if idle, total := r.pool.counts(); idle != total {
			t.Errorf("%v: %d idle != %d total after nested regions", l, idle, total)
		}
		r.Shutdown()
	}
}

// TestShutdownFallsBackToSpawn: a runtime stays usable after
// Shutdown, spawning goroutines per region, and the pool stays empty.
func TestShutdownFallsBackToSpawn(t *testing.T) {
	r := NewWithEnv(LayerAtomic, fakeEnv(nil))
	if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.Shutdown()
	var ran atomic.Int32
	if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("post-shutdown region ran %d threads, want 4", ran.Load())
	}
	if idle, total := r.pool.counts(); idle != 0 || total != 0 {
		t.Fatalf("post-shutdown pool holds %d idle / %d total workers, want 0/0", idle, total)
	}
}

// TestWorkerIdleRetirement: parked workers retire after the idle
// timeout, so short-lived runtimes do not pin goroutines.
func TestWorkerIdleRetirement(t *testing.T) {
	r := NewWithEnv(LayerAtomic, fakeEnv(nil))
	if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, total := r.pool.counts(); total == 0 {
		t.Fatal("no pool workers after a 4-thread region")
	}
	deadline := time.Now().Add(10 * workerIdleTimeout)
	for {
		if _, total := r.pool.counts(); total == 0 {
			return
		}
		if time.Now().After(deadline) {
			_, total := r.pool.counts()
			t.Fatalf("%d workers still live after idle timeout", total)
		}
		time.Sleep(workerIdleTimeout / 5)
	}
}

// TestWaitPolicyICV exercises SetWaitPolicy: both values work under
// both layers, pool dispatch still functions with active spinning,
// and invalid values are rejected.
func TestWaitPolicyICV(t *testing.T) {
	for _, l := range bothLayers {
		r := NewWithEnv(l, fakeEnv(nil))
		if got := r.GetWaitPolicy(); got != "passive" {
			t.Errorf("%v: default wait policy %q, want passive", l, got)
		}
		if err := r.SetWaitPolicy("active"); err != nil {
			t.Fatalf("%v: SetWaitPolicy(active): %v", l, err)
		}
		if got := r.GetWaitPolicy(); got != "active" {
			t.Errorf("%v: wait policy %q after set, want active", l, got)
		}
		// Back-to-back regions: the second dispatch tends to catch
		// workers inside the active spin loop's poll path.
		for i := 0; i < 5; i++ {
			var ran atomic.Int32
			if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
				ran.Add(1)
				return nil
			}); err != nil {
				t.Fatalf("%v: %v", l, err)
			}
			if ran.Load() != 4 {
				t.Fatalf("%v: ran %d threads under active policy, want 4", l, ran.Load())
			}
		}
		if err := r.SetWaitPolicy("eager"); err == nil {
			t.Errorf("%v: SetWaitPolicy(eager) succeeded, want error", l)
		}
		r.Shutdown()
	}
}

// TestPoolDifferentialWorkload runs the same task-spawning workload on
// pooled workers and, after Shutdown, on spawned members, under both
// layers; results must agree — the spawn path is what a region falls
// back to when the pool is exhausted or shut down.
func TestPoolDifferentialWorkload(t *testing.T) {
	workload := func(r *Runtime) int64 {
		var sum atomic.Int64
		err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
			for i := 0; i < 8; i++ {
				i := i
				if err := c.SubmitTask(TaskOpts{}, func(tc *Context) error {
					sum.Add(int64(c.GetThreadNum()*100 + i))
					return nil
				}); err != nil {
					return err
				}
			}
			return c.TaskWait()
		})
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		return sum.Load()
	}
	var want int64
	for ti := 0; ti < 4; ti++ {
		for i := 0; i < 8; i++ {
			want += int64(ti*100 + i)
		}
	}
	for _, l := range bothLayers {
		r := NewWithEnv(l, fakeEnv(nil))
		for _, members := range []string{"pooled", "spawned"} {
			for rep := 0; rep < 3; rep++ {
				if got := workload(r); got != want {
					t.Errorf("%v %s rep %d: sum = %d, want %d", l, members, rep, got, want)
				}
			}
			r.Shutdown()
		}
	}
}

// TestTeamRecycling: repeated same-size regions reuse cached teams; the cache stays bounded and holds only cleanly-joined
// teams.
func TestTeamRecycling(t *testing.T) {
	r := NewWithEnv(LayerAtomic, fakeEnv(nil))
	for i := 0; i < 3*maxCachedTeams; i++ {
		if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.teamCacheMu.Lock()
	cached := len(r.teamCache[4])
	r.teamCacheMu.Unlock()
	if cached == 0 {
		t.Error("no teams cached after repeated 4-thread regions")
	}
	if cached > maxCachedTeams {
		t.Errorf("%d teams cached, cap is %d", cached, maxCachedTeams)
	}
	r.Shutdown()
}
