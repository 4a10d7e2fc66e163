package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/mpi"
)

// mpi-tcp sizes. One round is one halo run, then the latency kinds in
// bursts; rounds repeat until the deadline.
const (
	haloRows   = 192
	haloCols   = 512
	haloSweeps = 10 // sweeps per halo run; the sample is the run's mean sweep
	haloChunks = 8
	pingBurst  = 100  // 8-byte round trips per round
	bigBurst   = 10   // 64 KiB round trips per round
	bigFloats  = 8192 // 64 KiB of float64
	collBurst  = 50   // Allreduce and Barrier calls per round
	tagPing    = 1 << 20
	tagBig     = 1<<20 + 1
)

type mpiTCP struct {
	comms []*mpi.Comm
	want  bench.HaloResult
	cfg   bench.HaloConfig
	// stencilNS is one rank's share of the sequential halo run: what a
	// halo run costs with no communication at all.
	stencilNS int64
	// Traced-phase sums for the per-layer metrics.
	sweeps       int
	haloMsgs     int64
	haloBytes    int64
	haloCoalesce int64
	haloNS       int64
	recvWaitNS   int64
}

func newMPITCP() *mpiTCP { return &mpiTCP{} }

// freeAddr reserves a loopback port for the rendezvous.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// eachRank runs body on every rank's communicator concurrently (ranks
// are goroutines over real loopback sockets, as in the transport's own
// tests) and joins their errors.
func eachRank(comms []*mpi.Comm, body func(c *mpi.Comm) error) error {
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c *mpi.Comm) {
			defer wg.Done()
			errs[r] = body(c)
		}(r, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *mpiTCP) setup(e *env) error {
	w.cfg = bench.HaloConfig{Rows: haloRows, Cols: haloCols, Iters: haloSweeps, Seed: e.seed, Threads: 1, Chunks: haloChunks}
	t0 := time.Now()
	w.want = bench.SequentialHaloJacobi(w.cfg)
	w.stencilNS = int64(time.Since(t0)) / int64(e.n)
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	w.comms = make([]*mpi.Comm, e.n)
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	for r := 0; r < e.n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.comms[r], errs[r] = mpi.ConnectTCP(mpi.TCPConfig{Rank: r, Size: e.n, Addr: addr,
				DialTimeout: 15 * time.Second})
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// Warm-up: one round, nothing recorded.
	return w.round(e, &mpiRows{}, false)
}

func (w *mpiTCP) close() {
	for _, c := range w.comms {
		if c != nil {
			_ = c.Close() // the run is over; a close error changes nothing
		}
	}
	w.comms = nil
}

func (w *mpiTCP) measure(e *env, deadline time.Time) {
	rows := &mpiRows{
		sweep: e.row("halo-sweep", true), ping: e.row("rtt-8b", true),
		big: e.row("rtt-64k", false), allreduce: e.row("allreduce", false), barrier: e.row("barrier", false),
	}
	for {
		if err := w.round(e, rows, true); err != nil {
			e.record(rows.sweep, 0, err)
			return
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

type mpiRows struct{ sweep, ping, big, allreduce, barrier *row }

func sameCells(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pingKind is one latency-bound point-to-point kind.
type pingKind struct {
	name   string
	tag, n int
	burst  int
	row    func(*mpiRows) *row
}

var pingKinds = []pingKind{
	{"Send/Recv 8B", tagPing, 1, pingBurst, func(r *mpiRows) *row { return r.ping }},
	{"Send/Recv 64KiB", tagBig, bigFloats, bigBurst, func(r *mpiRows) *row { return r.big }},
}

// round runs one round on every rank. Rank 0 times, validates and
// records; with record false nothing is recorded (warm-up). A
// single-rank world (one CPU) has no peer, so it skips the ping-pong.
func (w *mpiTCP) round(e *env, rows *mpiRows, record bool) error {
	size := len(w.comms)
	return eachRank(w.comms, func(c *mpi.Comm) error {
		rank := c.Rank()
		// rec records one op whose whole time is the transport's.
		rec := func(r *row, name string, d time.Duration, err error) {
			if rank == 0 && record {
				e.tr.add(layerMPI, name, d, nil)
				e.record(r, d, err)
			}
		}

		// (a) halo jacobi: coalesced batches, bit-identical to the
		// sequential sweep.
		traced := rank == 0 && record && e.tr.on
		var m0 *metrics.Snapshot
		if traced {
			m0 = c.MetricsSnapshot()
		}
		t0 := time.Now()
		res, err := bench.RunHaloJacobi(c, w.cfg)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if !sameCells(res.Cells, w.want.Cells) {
			err = fmt.Errorf("halo grid differs from SequentialHaloJacobi")
		}
		if rank == 0 && record {
			if traced {
				w.haloCounters(e, m0, c.MetricsSnapshot(), d)
			}
			e.record(rows.sweep, d/haloSweeps, err)
		}

		// (b) latency-bound point-to-point between ranks 0 and 1: rank
		// 1 adds one to the first element and echoes.
		for _, k := range pingKinds {
			if size < 2 || rank > 1 {
				break
			}
			buf := make([]float64, k.n)
			for i := 0; i < k.burst; i++ {
				if rank == 1 {
					got, err := c.Recv(0, k.tag)
					if err != nil {
						return err
					}
					got[0]++
					if err := c.Send(0, k.tag, got); err != nil {
						return err
					}
					continue
				}
				buf[k.n-1] = float64(2 * i)
				buf[0] = float64(i)
				t0 := time.Now()
				if err := c.Send(1, k.tag, buf); err != nil {
					return err
				}
				back, err := c.Recv(1, k.tag)
				d := time.Since(t0)
				if err != nil {
					return err
				}
				if len(back) != k.n || back[0] != float64(i)+1 || (k.n > 1 && back[k.n-1] != float64(2*i)) {
					err = fmt.Errorf("%s: echo mismatch", k.name)
				}
				rec(k.row(rows), k.name, d, err)
			}
		}

		// (c) collectives over every rank.
		for i := 0; i < collBurst; i++ {
			t0 := time.Now()
			sum, err := c.Allreduce(float64((rank+1)*(i+1)), mpi.OpSum)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if want := float64((i + 1) * size * (size + 1) / 2); sum != want {
				err = fmt.Errorf("allreduce %v, want %v", sum, want)
			}
			rec(rows.allreduce, "Allreduce", d, err)
		}
		for i := 0; i < collBurst; i++ {
			t0 := time.Now()
			if err := c.Barrier(); err != nil {
				return err
			}
			rec(rows.barrier, "Barrier", time.Since(t0), nil)
		}
		return nil
	})
}

// haloCounters keeps rank 0's transport counter deltas over one traced
// halo run and records its span. The stencil arithmetic is the
// harness's native kernel: a rank's share of the sequential run's time
// is taken out of the span as bench time, the rest is mpi's.
func (w *mpiTCP) haloCounters(e *env, m0, m1 *metrics.Snapshot, d time.Duration) {
	recvWait := m1.Hists[metrics.HistMPIRecvWait].SumNS - m0.Hists[metrics.HistMPIRecvWait].SumNS
	w.sweeps += haloSweeps
	w.haloNS += int64(d)
	w.recvWaitNS += recvWait
	w.haloMsgs += m1.Counters[metrics.MPIMsgs] - m0.Counters[metrics.MPIMsgs]
	w.haloBytes += m1.Counters[metrics.MPIBytes] - m0.Counters[metrics.MPIBytes]
	w.haloCoalesce += m1.Counters[metrics.MPICoalesced] - m0.Counters[metrics.MPICoalesced]
	e.tr.add(layerMPI, "bench.RunHaloJacobi", d, map[string]int64{layerBench: w.stencilNS})
}

func (w *mpiTCP) layers(e *env) {
	med := func(name string) float64 {
		if r, ok := e.byName[name]; ok {
			return median(r.ms)
		}
		return 0
	}
	e.layer["mpi.sweep_ms"] = med("halo-sweep")
	e.layer["mpi.rtt_us"] = med("rtt-8b") * 1e3
	e.layer["mpi.rtt_us.64k"] = med("rtt-64k") * 1e3
	e.layer["mpi.allreduce_us"] = med("allreduce") * 1e3
	e.layer["mpi.barrier_us"] = med("barrier") * 1e3
	if w.sweeps > 0 {
		s := float64(w.sweeps)
		e.layer["mpi.msgs_per_sweep"] = float64(w.haloMsgs) / s
		e.layer["mpi.bytes_per_sweep"] = float64(w.haloBytes) / s
		e.layer["mpi.batches_per_sweep"] = float64(w.haloMsgs-w.haloCoalesce) / s
		if w.haloMsgs > 0 {
			e.layer["mpi.coalesce_ratio"] = float64(w.haloCoalesce) / float64(w.haloMsgs)
		}
		if w.haloNS > 0 {
			e.layer["mpi.recv_wait_share"] = float64(w.recvWaitNS) / float64(w.haloNS)
		}
	}
	// The same halo on the in-process fabric: what is left of a sweep
	// when the transport costs nothing.
	local := e.row("halo-sweep@local", false)
	for i := 0; i < 5; i++ {
		var d time.Duration
		err := mpi.Run(len(w.comms), nil, func(c *mpi.Comm) error {
			t0 := time.Now()
			res, err := bench.RunHaloJacobi(c, w.cfg)
			if c.Rank() == 0 {
				d = time.Since(t0)
			}
			if err == nil && !sameCells(res.Cells, w.want.Cells) {
				err = fmt.Errorf("local halo grid differs from SequentialHaloJacobi")
			}
			return err
		})
		e.record(local, d/haloSweeps, err)
	}
	e.layer["mpi.local_sweep_ms"] = median(local.ms)
}
