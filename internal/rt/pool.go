package rt

import (
	stdctx "context"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/omp4go/omp4go/internal/metrics"
)

// This file implements the persistent worker pool behind Parallel.
// The paper's runtime (§4, Fig. 5) amortizes thread management by
// keeping OpenMP worker threads alive across parallel regions instead
// of re-spawning them per region; libgomp does the same with an
// OMP_WAIT_POLICY-controlled idle loop. Here each Runtime owns a pool
// of long-lived worker goroutines: Parallel dispatches region bodies
// to already-running workers through their park slots (layer.go), and
// only falls back to `go func` when the pool is exhausted or shut down.
//
// Pool workers carry a stable global thread id (gtid) across regions,
// so per-thread structures keyed by thread identity — the OMPT
// per-thread trace rings, and the recycled team's Chase–Lev deques —
// are allocated once per worker rather than once per region.
//
// Idle workers honor the wait-policy ICV: "active" spins with
// runtime.Gosched backoff before parking, "passive" (the default)
// parks immediately. A parked worker that stays idle past
// workerIdleTimeout retires its goroutine, so short-lived runtimes
// (the interpreter creates one per program) do not accumulate parked
// goroutines; Runtime.Shutdown retires the pool deterministically.

const (
	// activeSpins is the number of Gosched-yield probes an idle worker
	// performs before parking under the "active" wait policy.
	activeSpins = 128
	// graceSpins is the short probe burst every worker makes before a
	// full park, whatever the wait policy: in fork-join loops the next
	// region's dispatch usually lands within a few scheduler yields,
	// and catching it in poll skips the park-unpark round trip
	// entirely. libgomp's passive policy keeps the same brief spin
	// before sleeping (gomp_throttled_spin_count).
	graceSpins = 64
	// workerIdleTimeout is how long a parked worker stays resident
	// waiting for the next region before retiring its goroutine.
	workerIdleTimeout = 250 * time.Millisecond
)

// dispatch is the by-value work handoff a park slot carries: the
// member's team (which holds the region body and join group) and the
// member context. A plain struct instead of a closure keeps
// per-dispatch allocation at zero.
type dispatch struct {
	t *Team
	m *Context
}

// poolWorker is one persistent pool slot: a parked goroutine with a
// stable trace thread id and a layer-flavoured handoff cell.
type poolWorker struct {
	pool *workerPool
	gtid int32
	slot parkSlot
}

// workerPool owns a Runtime's persistent workers. free holds parked
// (or about-to-park) workers available for acquisition; total counts
// live worker goroutines, bounded by max.
type workerPool struct {
	rt *Runtime

	mu       sync.Mutex
	free     []*poolWorker
	total    int
	max      int
	shutdown bool
}

func newWorkerPool(r *Runtime) *workerPool {
	// The persistent-worker cap: enough to serve a few nested teams of
	// hardware size without unbounded goroutine growth, and never more
	// than the thread-limit ICV. Demand beyond the cap falls back to
	// spawned goroutines in Parallel.
	max := runtime.NumCPU() * 4
	if max < 16 {
		max = 16
	}
	if limit := r.GetThreadLimit(); limit < max {
		max = limit
	}
	return &workerPool{rt: r, max: max}
}

// acquire takes up to k workers off the free list, spawning new
// persistent workers while under the cap. It may return fewer than k
// (including none after shutdown); the caller covers the remainder
// with plain goroutines.
func (p *workerPool) acquire(k int) []*poolWorker {
	if k <= 0 {
		return nil
	}
	p.mu.Lock()
	if p.shutdown {
		p.mu.Unlock()
		return nil
	}
	var ws []*poolWorker
	for k > 0 && len(p.free) > 0 {
		w := p.free[len(p.free)-1]
		p.free[len(p.free)-1] = nil
		p.free = p.free[:len(p.free)-1]
		ws = append(ws, w)
		k--
	}
	for k > 0 && p.total < p.max {
		w := &poolWorker{
			pool: p,
			gtid: int32(p.rt.gtidSeq.Add(1) - 1),
			slot: newParkSlot(p.rt.layer),
		}
		p.total++
		go w.loop()
		ws = append(ws, w)
		k--
	}
	p.mu.Unlock()
	return ws
}

// releaseAll returns a region's borrowed workers under one lock. The
// master calls it after the join, before Parallel returns, so a
// caller observing Parallel's return also observes every borrowed
// slot back on the list. A pool shut down mid-region retires the
// returning workers instead: they are off the free list, so nothing
// can race a dispatch against the slot close.
func (p *workerPool) releaseAll(ws []*poolWorker) {
	if len(ws) == 0 {
		return
	}
	p.mu.Lock()
	if p.shutdown {
		p.total -= len(ws)
		p.mu.Unlock()
		for _, w := range ws {
			w.slot.closeSlot()
		}
		return
	}
	p.free = append(p.free, ws...)
	p.mu.Unlock()
}

// tryRetire removes an idle-timed-out worker from the free list. It
// fails when an acquirer already took the worker — a dispatch is then
// imminent and the worker must keep waiting.
func (p *workerPool) tryRetire(w *poolWorker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, f := range p.free {
		if f == w {
			p.free[i] = p.free[len(p.free)-1]
			p.free[len(p.free)-1] = nil
			p.free = p.free[:len(p.free)-1]
			p.total--
			return true
		}
	}
	return false
}

// shutdownAll retires every parked worker and marks the pool closed;
// busy workers retire when they release. Subsequent regions fall back
// to spawned goroutines.
func (p *workerPool) shutdownAll() {
	p.mu.Lock()
	p.shutdown = true
	ws := p.free
	p.free = nil
	p.total -= len(ws)
	p.mu.Unlock()
	for _, w := range ws {
		w.slot.closeSlot()
	}
}

// counts reports (parked, live) workers — a probe for slot-leak
// assertions in tests.
func (p *workerPool) counts() (idle, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free), p.total
}

// loop is the worker goroutine: wait for a region body, run it,
// repeat until closed or retired.
func (w *poolWorker) loop() {
	// The stable worker label makes parked pool goroutines
	// identifiable in pprof goroutine profiles for the worker's whole
	// lifetime; the per-region omp_region/omp_gtid labels are applied
	// by Parallel (and only while introspection is on).
	pprof.SetGoroutineLabels(pprof.WithLabels(stdctx.Background(),
		pprof.Labels("omp_pool_worker", itoa(int(w.gtid)))))
	for {
		d, ok := w.await()
		if !ok {
			return
		}
		d.t.memberMain(d.m)
		d.t.wg.Done()
	}
}

// await implements the wait-policy-aware idle loop: spin-then-park
// under "active", park immediately under "passive", retiring the
// worker when a full idle timeout passes with the worker still free.
func (w *poolWorker) await() (dispatch, bool) {
	spins := graceSpins
	if w.pool.rt.GetWaitPolicy() == "active" {
		spins = activeSpins
	}
	for i := 0; i < spins; i++ {
		if d, ok := w.slot.poll(); ok {
			return d, true
		}
		runtime.Gosched()
	}
	m := w.pool.rt.metrics
	for {
		// Each full park (and the matching dispatch wake-up) is
		// metered: a high park/unpark rate relative to regions forked
		// means the spin grace window is missing the fork-join cadence.
		m.Inc(w.gtid, metrics.PoolParks)
		d, ok, closed := w.slot.get(workerIdleTimeout)
		if ok {
			m.Inc(w.gtid, metrics.PoolUnparks)
			return d, true
		}
		if closed {
			m.Inc(w.gtid, metrics.PoolRetirements)
			return dispatch{}, false
		}
		if w.pool.tryRetire(w) {
			m.Inc(w.gtid, metrics.PoolRetirements)
			return dispatch{}, false
		}
		// Not on the free list: an acquirer holds this worker and will
		// dispatch shortly — park again without retiring.
	}
}
