// Package serve is the multi-tenant MiniPy execution service: an
// HTTP/JSON layer that accepts MiniPy programs with a directive mode
// (Pure/Hybrid/Compiled/CompiledDT), executes them on per-tenant
// isolated interpreter + OpenMP runtime instances, and returns (or
// streams) stdout and typed errors with source positions.
//
// Production concerns are the point of the package: per-tenant
// CPU-step/allocation/wall-clock quotas enforced through the
// interpreter's execution budget (internal/interp.Budget), admission
// control with load shedding when the worker slots saturate (429 +
// Retry-After), a bounded run queue, graceful drain on shutdown, and
// per-tenant counters/histograms on /metrics with per-tenant runtime
// introspection on /debug/omp.
package serve

import (
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/omp4go/omp4go/internal/rt"
)

// Env variable names understood by FromEnv. OMP_DISPLAY_ENV=verbose
// lists the same names, so a misconfigured deployment can see what the
// runtime parsed: FromEnv reads them through rt.ListedEnv, which
// refuses a name the runtime's table (internal/rt/icv.go) lacks.
const (
	EnvAddr         = "OMP4GO_SERVE_ADDR"
	EnvMaxBodyBytes = "OMP4GO_SERVE_MAX_BODY_BYTES"
	EnvMaxSteps     = "OMP4GO_SERVE_MAX_STEPS"
	EnvMaxAllocs    = "OMP4GO_SERVE_MAX_ALLOCS"
	EnvMaxWall      = "OMP4GO_SERVE_MAX_WALL"
	EnvMaxThreads   = "OMP4GO_SERVE_MAX_THREADS"
	EnvMaxWorkers   = "OMP4GO_SERVE_MAX_WORKERS"
	EnvQueueDepth   = "OMP4GO_SERVE_QUEUE_DEPTH"
	EnvHistory      = "OMP4GO_SERVE_HISTORY"
	EnvTokens       = "OMP4GO_SERVE_TOKENS"
	EnvWatchdog     = "OMP4GO_SERVE_WATCHDOG"
	EnvMaxSessions  = "OMP4GO_SERVE_MAX_SESSIONS"
	EnvSessionIdle  = "OMP4GO_SERVE_SESSION_IDLE"
	EnvFlight       = "OMP4GO_SERVE_FLIGHT"
)

// Quota bounds one tenant run. Zero fields mean "unlimited" except
// MaxThreads (0 = the server default).
type Quota struct {
	// MaxSteps bounds interpreter steps per run (the CPU-time proxy).
	MaxSteps int64
	// MaxAllocs bounds boxed allocations per run (the memory proxy —
	// MiniPy has no FS or network access, so allocations are the only
	// way a program grows).
	MaxAllocs int64
	// MaxWall is the wall-clock limit per run.
	MaxWall time.Duration
	// MaxThreads caps the OpenMP team size a run may request.
	MaxThreads int
}

// Config configures a Server.
type Config struct {
	// Addr is the listen address (":8500" by default; use ":0" in
	// tests).
	Addr string
	// MaxBodyBytes bounds the JSON request body; oversized requests
	// are rejected with 413.
	MaxBodyBytes int64
	// MaxStdoutBytes bounds captured stdout per run; the rest is
	// discarded and the response marked truncated.
	MaxStdoutBytes int
	// MaxWorkers is the number of runs executing concurrently;
	// QueueDepth is how many more may wait for a slot before the
	// server sheds load with 429.
	MaxWorkers int
	QueueDepth int
	// HistoryLimit is the per-session execution history ring size.
	HistoryLimit int
	// DefaultQuota applies to every tenant; TenantQuotas overrides it
	// per tenant.
	DefaultQuota Quota
	TenantQuotas map[string]Quota
	// Tokens, when non-empty, restricts access to the listed auth
	// tokens. An entry is either a bare token or "tenant=token", which
	// names the tenant the token authenticates as. Empty means any
	// well-formed token is accepted (the deployment fronts this with
	// real auth). Tokens are secrets and never appear in responses,
	// metrics labels or /debug/omp: an unnamed token's tenant identity
	// is a truncated hash of it.
	Tokens []string
	// MaxSessions caps the live session table; at the cap the
	// least-recently-used idle session is evicted to make room, and if
	// every session is mid-run the new request is shed with 429.
	// Without a cap, cycling random tokens in open mode would grow
	// interpreters and pooled workers without bound.
	MaxSessions int
	// SessionIdle evicts sessions with no authenticated request for
	// this long (checked when sessions are created). Negative disables
	// idle eviction; 0 takes the default.
	SessionIdle time.Duration
	// Watchdog arms the per-session runtime stall watchdog with this
	// threshold, surfacing stuck runs in /debug/omp. 0 = off.
	Watchdog time.Duration
	// FlightDir enables the per-tenant flight recorder: each tenant
	// runtime writes stall- and quota-kill-triggered post-mortem dumps
	// under FlightDir/<tenant>/<mode>. Empty = off.
	FlightDir string
}

// Defaults for the quota and service knobs.
const (
	DefaultAddr         = ":8500"
	DefaultMaxBodyBytes = 1 << 20 // 1 MiB of JSON
	DefaultMaxStdout    = 256 << 10
	DefaultMaxSteps     = 50_000_000
	DefaultMaxAllocs    = 64_000_000
	DefaultMaxWall      = 10 * time.Second
	DefaultMaxThreads   = 8
	DefaultHistory      = 64
	DefaultMaxSessions  = 256
	DefaultSessionIdle  = 15 * time.Minute
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = DefaultAddr
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxStdoutBytes <= 0 {
		c.MaxStdoutBytes = DefaultMaxStdout
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxWorkers
	}
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = DefaultHistory
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.SessionIdle == 0 {
		c.SessionIdle = DefaultSessionIdle
	}
	if c.DefaultQuota.MaxSteps == 0 {
		c.DefaultQuota.MaxSteps = DefaultMaxSteps
	}
	if c.DefaultQuota.MaxAllocs == 0 {
		c.DefaultQuota.MaxAllocs = DefaultMaxAllocs
	}
	if c.DefaultQuota.MaxWall == 0 {
		c.DefaultQuota.MaxWall = DefaultMaxWall
	}
	if c.DefaultQuota.MaxThreads <= 0 {
		c.DefaultQuota.MaxThreads = DefaultMaxThreads
	}
	return c
}

// quotaFor resolves the effective quota of a tenant.
func (c *Config) quotaFor(tenant string) Quota {
	q, ok := c.TenantQuotas[tenant]
	if !ok {
		return c.DefaultQuota
	}
	if q.MaxSteps == 0 {
		q.MaxSteps = c.DefaultQuota.MaxSteps
	}
	if q.MaxAllocs == 0 {
		q.MaxAllocs = c.DefaultQuota.MaxAllocs
	}
	if q.MaxWall == 0 {
		q.MaxWall = c.DefaultQuota.MaxWall
	}
	if q.MaxThreads <= 0 {
		q.MaxThreads = c.DefaultQuota.MaxThreads
	}
	return q
}

// FromEnv builds a Config from the OMP4GO_SERVE_* environment,
// falling back to the defaults for unset or unparsable values (the
// environment never fails service construction, matching how the
// runtime treats bad OMP_* values).
func FromEnv(getenv func(string) string) Config {
	getenv = rt.ListedEnv(getenv)
	var c Config
	c.Addr = strings.TrimSpace(getenv(EnvAddr))
	c.MaxBodyBytes = envInt64(getenv, EnvMaxBodyBytes)
	c.DefaultQuota.MaxSteps = envInt64(getenv, EnvMaxSteps)
	c.DefaultQuota.MaxAllocs = envInt64(getenv, EnvMaxAllocs)
	c.DefaultQuota.MaxWall = envDuration(getenv, EnvMaxWall)
	c.DefaultQuota.MaxThreads = int(envInt64(getenv, EnvMaxThreads))
	c.MaxWorkers = int(envInt64(getenv, EnvMaxWorkers))
	c.QueueDepth = int(envInt64(getenv, EnvQueueDepth))
	c.HistoryLimit = int(envInt64(getenv, EnvHistory))
	c.Watchdog = envDuration(getenv, EnvWatchdog)
	c.MaxSessions = int(envInt64(getenv, EnvMaxSessions))
	c.SessionIdle = envDuration(getenv, EnvSessionIdle)
	c.FlightDir = strings.TrimSpace(getenv(EnvFlight))
	if v := strings.TrimSpace(getenv(EnvTokens)); v != "" {
		for _, tok := range strings.Split(v, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				c.Tokens = append(c.Tokens, tok)
			}
		}
	}
	return c.withDefaults()
}

func envInt64(getenv func(string) string, key string) int64 {
	v := strings.TrimSpace(getenv(key))
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func envDuration(getenv func(string) string, key string) time.Duration {
	v := strings.TrimSpace(getenv(key))
	if v == "" {
		return 0
	}
	if d, err := time.ParseDuration(v); err == nil && d > 0 {
		return d
	}
	// A bare number reads as seconds, like OMP4GO_WATCHDOG.
	if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}
