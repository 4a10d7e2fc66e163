GO ?= go

.PHONY: build test race smoke mpi-smoke vet verify loc bench bench-smoke bench-report bench-gate benchmark trace clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails on gofmt drift in the packages of this module (the
# list loc counts; benchmark/ is its own module).
vet:
	$(GO) vet ./...
	@out=$$($(GO) list -f '{{.Dir}}' ./... | while read -r d; do gofmt -l $$d/*.go; done); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# run-table runs "go test $(1)" once per row of the table $(2), each
# row being 'package:-run pattern:timeout'. -count=1 defeats the test
# cache so a gate actually runs on every invocation, and the timeout is
# a deadlock watchdog: a scheduler bug that wedges a barrier fails the
# run instead of hanging CI.
define run-table
@set -e; for row in $(2); do \
  pkg=$${row%%:*}; rest=$${row#*:}; \
  echo "$(GO) test $(1) -count=1 -timeout $${rest#*:} -run '$${rest%%:*}' $$pkg"; \
  $(GO) test $(1) -count=1 -timeout "$${rest#*:}" -run "$${rest%%:*}" $$pkg; \
done
endef

# race is the race-detector gate. The runtime, tracing, serving and
# public-API packages run whole: that covers the task-dataflow
# differential (dependence, taskgroup, taskloop and task-error tests,
# the error-order stress test running its dependence chain 200 times,
# each iterating both task schedulers, the wavefront differential
# asserting bit-identical floats between them), the static-partition
# and reduction-slot tests and the compiled quota kill. internal/compile
# runs the typed-loop-IR and kernel differentials (static partition,
# schedule selection and escape hatch, kernel flow semantics, the
# seeded loop-nest differential of IR vs kernels off vs interp compared
# by Float64bits and faults by type, message and line, the declaration
# trust table, the stale-view and budget-poll regressions, the paper
# programs' and textbook shapes' IR coverage at 1/2/4 threads, the
# captured-vs-uncaptured typed parameter table) and the one-table
# four-executor operator test; internal/bench the benchmark-level
# kernels-on/off/interp matrix and the halo differential, which
# re-executes the race-built test binary as real rank processes;
# internal/mpi the matching, coalescing and single-puller receive path;
# internal/interp the runtime ABI table against the __omp module and
# the lowered programs, the fuzz seed corpus of Go callables, and two
# interpreters running one transformed module at once
# (TestInterpretersShareOneModule: the scope records they share are
# read-only).
RACE_TABLE = \
  './internal/rt/...:.:180s' \
  './internal/ompt/...:.:120s' \
  './internal/serve/...:.:120s' \
  './omp/...:.:180s' \
  './internal/compile/:TestKernel|TestIR|TestDeclarationTrust|TestPaperLoopsRunAsIR|TestTextbookLoopsRunAsIR|TestTypedParamChecked|TestNumericOperatorTable:300s' \
  './internal/minipy/:TestInspect:60s' \
  './internal/interp/:TestABI|FuzzCallBuiltin|TestInterpretersShareOneModule:120s' \
  './internal/bench/:TestKernelDifferentialMatrix|TestHalo|TestHybrid:300s' \
  './internal/mpi/:.:300s'

race:
	$(call run-table,-race,$(RACE_TABLE))

# smoke drives the observability and serving surfaces end to end. rt: a
# runtime started with OMP4GO_METRICS on a random port runs a region and
# /metrics is scraped over real HTTP; the attribution breakdown must sum
# to the region's wall time (n x wall for an n-thread team), a gated
# dependence chain must report nonzero depend_stall, and a deliberately
# stalled region must leave a loadable flight dump on disk. serve: every
# directive mode runs a parallel program over real HTTP, an oversized
# body is rejected with 413, an over-quota program is killed with the
# typed quota error and leaves a flight dump, and tenant time is
# attributed.
SMOKE_TABLE = \
  './internal/rt/:TestMetricsEndpointSmoke|TestMetricsAgreeWithTraceSummary|TestProfile|TestFlight|TestIntrospect.*WaitFor|TestTraceDropped:120s' \
  './internal/serve/:TestModes|TestBodyTooLarge|TestQuotaKill|TestQuotaKillWritesFlightDump|TestTenantTimeAttribution:120s'

smoke:
	$(call run-table,,$(SMOKE_TABLE))

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

# verify is the CI gate: static checks, the tier-1 tests, the smoke and
# race tables, the real-binary MPI smoke, a single-iteration run of the
# region-overhead benchmark so a dispatch regression fails loudly, and
# bounded fuzzing of every Go-implemented callable MiniPy can reach, of
# the MiniPy parser with its unparse fixpoint, and of the directive
# parser.
verify: vet smoke race mpi-smoke
	$(GO) test ./...
	$(GO) test -run=NONE -bench=BenchmarkRegionOverhead -benchtime=1x -timeout 120s ./internal/rt/
	$(GO) test -run=NONE -fuzz=FuzzCallBuiltin -fuzztime=15s ./internal/interp/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=15s ./internal/minipy/
	$(GO) test -run=NONE -fuzz=FuzzDirective -fuzztime=15s ./internal/directive/

# loc prints the non-test .go lines of every package of this module
# (benchmark/ is its own module and is not counted).
loc:
	@$(GO) list -f '{{.Dir}}' ./... | while read -r d; do \
	  n=$$(cat /dev/null $$(ls $$d/*.go | grep -v _test.go) | wc -l); \
	  printf '%6d  %s\n' $$n "$${d#$(CURDIR)/}"; \
	done

bench:
	$(GO) test -run=NONE -bench=BenchmarkFig5 -benchtime=1x ./...

# bench-smoke is the cheap scheduler-regression canary: one qsort
# (task-heavy) Fig. 5 run plus the direct scheduler microbenchmarks.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkFig5/qsort' -benchtime=1x -timeout 300s .
	$(GO) test -run=NONE -bench=BenchmarkTaskSched -benchtime=1x -timeout 300s ./internal/rt/

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
