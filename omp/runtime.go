package omp

import (
	"time"

	"github.com/omp4go/omp4go/internal/rt"
)

// Runtime is an isolated OpenMP runtime instance: its own ICVs, its
// own persistent worker pool, fully independent of the process-wide
// default runtime the package-level functions use. Mirroring the
// paper's architecture, contexts from one runtime are foreign initial
// threads to another.
type Instance struct {
	rt   *rt.Runtime
	root *TC
}

// RuntimeOption configures a Runtime at construction, covering the
// knobs that are otherwise only reachable through environment
// variables.
type RuntimeOption func(*runtimeConfig)

type runtimeConfig struct {
	waitPolicy string
	numThreads int
	watchdog   time.Duration
}

// WithWaitPolicy sets the wait-policy ICV ("active" or "passive") for
// the new runtime's idle pool workers, overriding OMP_WAIT_POLICY.
// Invalid values are ignored, as they are in the environment.
func WithWaitPolicy(policy string) RuntimeOption {
	return func(c *runtimeConfig) { c.waitPolicy = policy }
}

// WithDefaultNumThreads sets the nthreads ICV of the new runtime, as
// SetNumThreads does after construction.
func WithDefaultNumThreads(n int) RuntimeOption {
	return func(c *runtimeConfig) { c.numThreads = n }
}

// WithWatchdog arms the stall watchdog on the new runtime with the
// given threshold, as StartWatchdog does after construction and as
// OMP4GO_WATCHDOG does through the environment. Non-positive
// thresholds are ignored.
func WithWatchdog(threshold time.Duration) RuntimeOption {
	return func(c *runtimeConfig) { c.watchdog = threshold }
}

// NewRuntime creates an isolated runtime (atomic layer, the paper's
// Hybrid default). ICVs initialize from the OMP_* environment, then
// the options apply on top.
func NewRuntime(opts ...RuntimeOption) *Instance {
	var cfg runtimeConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	inner := rt.New(rt.LayerAtomic)
	if cfg.waitPolicy != "" {
		// Mirror the environment's tolerance: a bad value keeps the
		// default instead of failing construction.
		_ = inner.SetWaitPolicy(cfg.waitPolicy)
	}
	if cfg.numThreads > 0 {
		inner.SetNumThreads(cfg.numThreads)
	}
	if cfg.watchdog > 0 {
		inner.StartWatchdog(cfg.watchdog)
	}
	return &Instance{rt: inner, root: &TC{ctx: inner.NewContext()}}
}

// Root returns the runtime's initial-thread context.
func (r *Instance) Root() *TC { return r.root }

// Parallel forks a team on this runtime from its initial thread.
func (r *Instance) Parallel(body func(tc *TC), opts ...Option) error {
	return r.root.Parallel(body, opts...)
}

// Close retires the runtime's parked pool workers. Optional — idle
// workers retire on their own — but deterministic; the runtime stays
// usable, spawning goroutines per region afterwards.
func (r *Instance) Close() { r.rt.Shutdown() }

// SetNumThreads sets the default team size (omp_set_num_threads).
func (r *Instance) SetNumThreads(n int) { r.rt.SetNumThreads(n) }

// SetNested enables nested parallelism (omp_set_nested).
func (r *Instance) SetNested(v bool) { r.rt.SetNested(v) }

// SetWaitPolicy sets the wait-policy ICV ("active" or "passive").
func (r *Instance) SetWaitPolicy(policy string) error { return r.rt.SetWaitPolicy(policy) }

// GetWaitPolicy returns the wait-policy ICV.
func (r *Instance) GetWaitPolicy() string { return r.rt.GetWaitPolicy() }
