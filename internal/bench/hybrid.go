package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/omp4go/omp4go/internal/compile"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/mpi"
	"github.com/omp4go/omp4go/internal/rt"
	"github.com/omp4go/omp4go/internal/transform"
)

// hybridJacobiSource is the MPI+OpenMP jacobi of §IV-C: MPI
// distributes matrix rows across processes, each sweep updates the
// local rows with OpenMP, MPI_Allgather rebuilds x, and
// MPI_Allreduce combines the error for the stopping criterion.
const hybridJacobiSource = `
from omp4py import *
import bench
import math
import mpi4py

@omp
def bench_main(threads: int, n: int, iters: int, seed: int) -> float:
    omp_set_num_threads(threads)
    rank: int = mpi4py.rank()
    procs: int = mpi4py.size()
    data = bench.jacobi_input(n, seed)
    a = data[0]
    b = data[1]
    lo: int = rank * n // procs
    hi: int = (rank + 1) * n // procs
    x = [0.0] * n
    local = [0.0] * (hi - lo)
    it: int = 0
    while it < iters:
        with omp("parallel for"):
            for i in range(lo, hi):
                s: float = 0.0
                row: int = i * n
                for jj in range(n):
                    if jj != i:
                        s += a[row + jj] * x[jj]
                local[i - lo] = (b[i] - s) / a[row + i]
        err: float = 0.0
        with omp("parallel for reduction(+:err)"):
            for i2 in range(lo, hi):
                err += math.fabs(local[i2 - lo] - x[i2])
        globalerr: float = mpi4py.allreduce(err)
        x = mpi4py.allgather(local)
        if globalerr < 0.0000000001:
            it = iters
        it += 1
    total: float = 0.0
    for i3 in range(n):
        total += x[i3]
    return total
`

// HybridConfig configures a Fig. 8 run.
type HybridConfig struct {
	// Mode is the OMP4Py mode each rank executes in.
	Mode Mode
	// Nodes is the simulated node count; one MPI rank runs per node,
	// as in the paper's 16-threads-per-node setup.
	Nodes int
	// ThreadsPerNode is the OpenMP team size within each rank.
	ThreadsPerNode int
	// N, Iters, Seed are the jacobi problem parameters.
	N     int
	Iters int
	Seed  int64
	// Network is the simulated interconnect (nil = ideal).
	Network *mpi.NetworkModel
}

// HybridResult is one hybrid measurement.
type HybridResult struct {
	Checksum float64
	Seconds  float64
	Nodes    int
}

// RunHybridJacobi executes the hybrid MPI/OpenMP jacobi: every rank
// hosts its own interpreter instance (one Python process per rank,
// as mpirun would launch) bound to the shared in-process MPI fabric.
func RunHybridJacobi(cfg HybridConfig) (HybridResult, error) {
	if cfg.Nodes < 1 || cfg.ThreadsPerNode < 1 {
		return HybridResult{}, fmt.Errorf("bench: invalid hybrid config %+v", cfg)
	}
	checksums := make([]float64, cfg.Nodes)
	var mu sync.Mutex
	start := time.Now()
	err := mpi.Run(cfg.Nodes, cfg.Network, func(c *mpi.Comm) error {
		sum, err := runHybridRank(cfg, c)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		mu.Lock()
		checksums[c.Rank()] = sum
		mu.Unlock()
		return nil
	})
	if err != nil {
		return HybridResult{}, err
	}
	res := HybridResult{Checksum: checksums[0], Seconds: time.Since(start).Seconds(), Nodes: cfg.Nodes}
	for r, s := range checksums {
		if s != checksums[0] {
			return res, fmt.Errorf("bench: rank %d checksum %v differs from rank 0's %v", r, s, checksums[0])
		}
	}
	return res, nil
}

// runHybridRank builds one rank's interpreter with the mpi4py
// bridge and runs the program.
func runHybridRank(cfg HybridConfig, c *mpi.Comm) (float64, error) {
	mod, err := minipy.Parse(hybridJacobiSource, "hybrid_jacobi.py")
	if err != nil {
		return 0, err
	}
	if _, err := transform.Module(mod); err != nil {
		return 0, err
	}
	layer := rt.LayerAtomic
	if cfg.Mode == Pure {
		layer = rt.LayerMutex
	}
	interpMode := cfg.Mode == Pure || cfg.Mode == Hybrid
	in := interp.New(interp.Options{
		Layer:          layer,
		ContendedAlloc: interpMode,
		Stdout:         io.Discard,
		Getenv:         func(string) string { return "" },
	})
	installInputModules(in)
	// Land this rank's omp4go_mpi_* counters on the same registry the
	// rank's /metrics endpoint (if enabled) serves.
	c.AttachMetrics(in.Runtime().Metrics())
	in.RegisterModule(mpiModule(c))
	if cfg.Mode == Compiled || cfg.Mode == CompiledDT {
		if err := compile.Install(in, mod, compile.Options{Typed: cfg.Mode == CompiledDT}); err != nil {
			return 0, err
		}
	}
	if err := in.RunModule(mod); err != nil {
		return 0, err
	}
	v, err := in.CallFunction("bench_main",
		int64(cfg.ThreadsPerNode), int64(cfg.N), int64(cfg.Iters), cfg.Seed)
	if err != nil {
		return 0, err
	}
	sum, ok := interp.AsFloat(v)
	if !ok {
		return 0, fmt.Errorf("bench_main returned %s", interp.TypeName(v))
	}
	return sum, nil
}

// mpiModule exposes the rank's communicator to MiniPy, mirroring the
// mpi4py surface the benchmark uses. Like mpi4py backed by a C MPI
// library, the data moves through native code; the calls block, so
// they are marked GIL-releasing.
func mpiModule(c *mpi.Comm) *interp.Module {
	pos := minipy.Position{}
	mpiErr := func(err error) error { return interp.NewPyError("RuntimeError", err.Error(), pos) }
	return interp.NewModule("mpi4py",
		&interp.Builtin{Name: "rank", Sig: interp.Args(0, 0), Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			return int64(c.Rank()), nil
		}},
		&interp.Builtin{Name: "size", Sig: interp.Args(0, 0), Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			return int64(c.Size()), nil
		}},
		&interp.Builtin{Name: "barrier", Sig: interp.Args(0, 0), ReleasesGIL: true, Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			if err := c.Barrier(); err != nil {
				return nil, mpiErr(err)
			}
			return nil, nil
		}},
		&interp.Builtin{Name: "allreduce", Sig: interp.Args(1, 1), ReleasesGIL: true, Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			f, ok := interp.AsFloat(args[0])
			if !ok {
				return nil, interp.NewPyError("TypeError", "allreduce value must be a number", pos)
			}
			res, err := c.Allreduce(f, mpi.OpSum)
			if err != nil {
				return nil, mpiErr(err)
			}
			return res, nil
		}},
		&interp.Builtin{Name: "allgather", Sig: interp.Args(1, 1), ReleasesGIL: true, Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			l, ok := args[0].(*interp.List)
			if !ok {
				return nil, interp.NewPyError("TypeError", "allgather argument must be a list", pos)
			}
			var local []float64
			if fs, isF := l.FloatData(); isF {
				local = fs
			} else {
				local = make([]float64, l.Len())
				for i := range local {
					f, ok := interp.AsFloat(l.Get(i))
					if !ok {
						return nil, interp.NewPyError("TypeError", "allgather list must hold numbers", pos)
					}
					local[i] = f
				}
			}
			all, err := c.Allgather(local)
			if err != nil {
				return nil, mpiErr(err)
			}
			return interp.AdoptFloats(all), nil
		}},
	)
}
