GO ?= go

.PHONY: build test race vet verify depend-race kernels-race metrics-smoke serve-smoke profile-smoke mpi-smoke mpi-race bench bench-compare bench-report bench-gate benchmark trace clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the packages with concurrency-sensitive tests under the
# race detector (runtime, tracing, public API). The timeout is a
# deadlock watchdog: a scheduler bug that wedges a barrier fails the
# run in 120s instead of hanging CI.
race:
	$(GO) test -race -timeout 120s ./internal/rt/... ./internal/ompt/... ./internal/serve/... ./omp/...

vet:
	$(GO) vet ./...

# metrics-smoke exercises the observability endpoint end to end: a
# runtime started with OMP4GO_METRICS on a random port runs a parallel
# region, then /metrics is scraped over real HTTP and the region and
# barrier counters are asserted non-zero. -count=1 defeats the test
# cache so the smoke actually runs on every invocation.
metrics-smoke:
	$(GO) test -run='TestMetricsEndpointSmoke|TestMetricsAgreeWithTraceSummary' -count=1 -timeout 60s ./internal/rt/

# serve-smoke exercises the execution service over real HTTP: every
# directive mode runs a parallel program end to end, an oversized body
# is rejected with 413, and an over-quota program is killed with the
# typed quota error. -count=1 defeats the test cache so the smoke
# actually runs on every invocation.
serve-smoke:
	$(GO) test -run='TestModes|TestBodyTooLarge|TestQuotaKill' -count=1 -timeout 120s ./internal/serve/

# profile-smoke exercises the time-attribution profiler and the flight
# recorder end to end: the attribution breakdown must sum to the
# region's wall time (n x wall for an n-thread team), a gated
# dependence chain must report nonzero depend_stall, and a deliberately
# stalled region must leave a loadable flight dump on disk. -count=1
# defeats the test cache so the smoke actually runs on every
# invocation.
profile-smoke:
	$(GO) test -run='TestProfile|TestFlight|TestIntrospect.*WaitFor|TestTraceDropped' -count=1 -timeout 120s ./internal/rt/
	$(GO) test -run='TestQuotaKillWritesFlightDump|TestTenantTimeAttribution' -count=1 -timeout 60s ./internal/serve/

# mpi-smoke exercises the distributed transport end to end: the real
# launcher (cmd/omp4go-mpirun) spawns a 2-rank loopback world of the
# hybrid-jacobi example over TCP sockets, the result is checked
# bit-for-bit against the sequential sweep inside the example, and the
# printed omp4go_mpi_coalesced_total counter must be nonzero — halo
# chunks actually rode coalesced wire batches.
mpi-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/hybrid-jacobi ./examples/hybrid-jacobi && \
	$(GO) build -o $$tmp/omp4go-mpirun ./cmd/omp4go-mpirun && \
	out=$$($$tmp/omp4go-mpirun -n 2 $$tmp/hybrid-jacobi -rows 48 -cols 32 -iters 4) && \
	echo "$$out" | grep -q "halo jacobi ok" && \
	echo "$$out" | grep "omp4go_mpi_coalesced_total" | grep -qv " 0$$" && \
	echo "mpi-smoke: 2-rank TCP halo jacobi ok, coalescing active"

# mpi-race runs the transport and halo-differential tests under the
# race detector with the test cache defeated: matching, coalescing and
# the single-puller receive path are the concurrency-dense code, and
# the differential (which re-executes the race-built test binary as
# real rank processes) pins bit-identical results across transports.
mpi-race:
	$(GO) test -race -count=1 -timeout 300s ./internal/mpi/
	$(GO) test -race -count=1 -timeout 300s -run='TestHalo|TestHybrid' ./internal/bench/

# verify is the CI gate: static checks plus the race-detector pass
# over the runtime and observability layers, plus a single-iteration
# smoke of the pool-vs-spawn overhead benchmark so a dispatch
# regression that only bites under the pool path fails loudly, plus
# the metrics endpoint, execution-service and profiler/flight smokes.
verify: vet metrics-smoke serve-smoke profile-smoke depend-race kernels-race mpi-smoke mpi-race
	$(GO) test ./...
	$(GO) test -race -timeout 120s ./internal/rt/... ./internal/ompt/... ./internal/serve/... ./omp/...
	$(GO) test -run=NONE -bench=BenchmarkRegionOverhead -benchtime=1x -timeout 120s ./internal/rt/

# depend-race is the task-dataflow differential gate: the dependence,
# taskgroup, taskloop and task-error tests run under the race detector
# with the test cache defeated. Each test iterates BOTH task
# schedulers (list and stealing) internally, and the wavefront
# differential asserts bit-identical float results between them — a
# dependence edge missed by either scheduler shows up as a data race
# or a differing checksum here.
depend-race:
	$(GO) test -race -count=1 -timeout 180s \
	  -run='TestDepend|TestTaskgroup|TestTaskLoop|TestWavefront|TestUndeferred|TestTaskWait|TestNested|TestPanic|TestTaskError|TestRegionJoin' \
	  ./internal/rt/
	$(GO) test -race -count=1 -timeout 180s -run='TestTask|TestCancel' ./omp/

# kernels-race is the typed-loop-IR and compiled-kernel differential
# gate: the static partition differential, the schedule-selection and
# escape-hatch matrix, the kernel flow-semantics tests, the seeded
# loop-nest differential (IR vs kernels off vs interp, results compared
# by Float64bits, faults by type, message and line), the declaration
# trust table, the stale-view and budget-poll regressions, the paper
# programs' and the textbook shapes' IR-coverage assertions (typed
# captures and typed data-sharing copies, 1/2/4 threads), the
# captured-vs-uncaptured typed parameter table and the benchmark-level
# kernels-on/off/interp matrix run under the race detector with the
# test cache defeated. An IR loop that reads stale hoisted
# storage, races the bridge on a mixed loop or outlives its quota shows
# up here as a data race, a diverging checksum or a hung test.
kernels-race:
	$(GO) test -race -count=1 -timeout 180s -run='TestStaticBounds|TestReduceSlot' ./internal/rt/
	$(GO) test -race -count=1 -timeout 300s -run='TestKernel|TestIR|TestDeclarationTrust|TestPaperLoopsRunAsIR|TestTextbookLoopsRunAsIR|TestTypedParamChecked' ./internal/compile/
	$(GO) test -race -count=1 -timeout 300s -run='TestKernelDifferentialMatrix' ./internal/bench/
	$(GO) test -race -count=1 -timeout 120s -run='TestCompiledQuotaKill' ./internal/serve/

bench:
	$(GO) test -run=NONE -bench=BenchmarkFig5 -benchtime=1x ./...

# bench-smoke is the cheap scheduler-regression canary: one qsort
# (task-heavy) Fig. 5 run plus the direct scheduler microbenchmarks.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkFig5/qsort' -benchtime=1x -timeout 300s .
	$(GO) test -run=NONE -bench=BenchmarkTaskSched -benchtime=1x -timeout 300s ./internal/rt/

# bench-compare quantifies the persistent worker pool against the
# spawn-per-region baseline: the region-overhead microbenchmark runs
# both modes in-process (the pool=on/off sub-benchmarks), and the awk
# pass prints the off/on time ratio per team size — the Fig. 5
# thread-management amortization. A task-heavy Fig. 5 kernel then runs
# once under each mode via the real OMP4GO_POOL environment ICV.
bench-compare:
	$(GO) test -run=NONE -bench=BenchmarkRegionOverhead -benchtime=500ms -timeout 600s ./internal/rt/ \
	  | awk '/^BenchmarkRegionOverhead/ { split($$1, p, "/"); t[p[2] "/" p[3]] = $$3 } \
	    END { for (k in t) if (k ~ /^pool=on/) { size = substr(k, 9); off = t["pool=off/" size]; \
	      if (off) printf "  %-4s spawn/pool ratio: %.2fx (%.0f ns -> %.0f ns)\n", size, off / t[k], off, t[k] } }'
	$(GO) test -run=NONE -bench='BenchmarkFig5/qsort' -benchtime=1x -timeout 300s .
	OMP4GO_POOL=off $(GO) test -run=NONE -bench='BenchmarkFig5/qsort' -benchtime=1x -timeout 300s .

# bench-report regenerates the committed timing snapshot
# (BENCH_report.json): the Fig. 5/6 matrix at laptop scale, three
# repetitions. Run it on the reference machine after deliberate
# performance changes and commit the result.
bench-report:
	$(GO) run ./cmd/omp4go-report -maxthreads 4 -reps 3 -json BENCH_report.json fig5 fig6

# bench-gate re-measures the same matrix and fails when the overall
# geometric mean regresses more than 5% against the committed
# snapshot (per-series deltas are reported but do not gate; see the
# gate function in cmd/omp4go-report).
bench-gate:
	$(GO) run ./cmd/omp4go-report -maxthreads 4 -reps 3 -json "" -gate BENCH_report.json fig5 fig6

# benchmark runs one workload of the layered benchmark (BENCHMARK.json,
# benchmark/README.md) the way the driver does, with the per-layer
# metrics and a Chrome trace: make benchmark W=paper-dt. Workloads:
# paper-dt paper-interp sched-dyn rt-fine cold-load serve-closed mpi-tcp.
W ?= paper-dt
benchmark:
	bash benchmark/run.sh --workload $(W) --seed 1 --seconds 12 --trace 1

# trace produces the demo Chrome trace (load in chrome://tracing or
# ui.perfetto.dev).
trace:
	$(GO) run ./cmd/omp4go-trace pi 4

# BENCH_report.json is a committed snapshot (the bench-gate baseline),
# not a build product — clean leaves it alone.
clean:
	$(GO) clean ./...
	rm -f *-trace.json
