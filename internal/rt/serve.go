package rt

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/omp4go/omp4go/internal/ompt"
	"github.com/omp4go/omp4go/internal/prof"
)

// This file implements the live metrics/introspection endpoint:
// /metrics serves the always-on counters in Prometheus text format,
// /debug/omp a JSON snapshot of ICVs, pool state and in-flight
// regions, and /debug/pprof the standard Go profiles (goroutine
// profiles carry the omp_region/omp_gtid labels Parallel applies
// while introspection is on). Activated by OMP4GO_METRICS=<addr> or
// Runtime.ServeMetrics.

// MetricsServer is a running introspection endpoint.
type MetricsServer struct {
	rt  *Runtime
	ln  net.Listener
	srv *http.Server
}

// ServeMetrics starts serving the runtime's metrics and debug
// endpoints on addr (e.g. ":9090" or "127.0.0.1:0"), enabling live
// introspection as a side effect. The returned server reports its
// bound address via Addr and is shut down with Close.
func (r *Runtime) ServeMetrics(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r.ensureObs()
	s := &MetricsServer{rt: r, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/omp", s.handleDebug)
	mux.HandleFunc("/debug/omp/profile", s.handleProfile)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's bound address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *MetricsServer) Close() error { return s.srv.Close() }

func (s *MetricsServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.rt.MetricsSnapshot()
	if err := snap.WritePrometheus(w); err != nil {
		return
	}
	// Gauges live outside the striped registry: they describe current
	// state, not accumulated events.
	idle, total := s.rt.pool.counts()
	fmt.Fprintf(w, "# HELP omp4go_pool_workers_idle Parked pool workers available for dispatch.\n")
	fmt.Fprintf(w, "# TYPE omp4go_pool_workers_idle gauge\n")
	fmt.Fprintf(w, "omp4go_pool_workers_idle %d\n", idle)
	fmt.Fprintf(w, "# HELP omp4go_pool_workers_live Live persistent pool worker goroutines.\n")
	fmt.Fprintf(w, "# TYPE omp4go_pool_workers_live gauge\n")
	fmt.Fprintf(w, "omp4go_pool_workers_live %d\n", total)
	regions := s.rt.InflightRegions()
	fmt.Fprintf(w, "# HELP omp4go_inflight_regions Parallel regions currently executing.\n")
	fmt.Fprintf(w, "# TYPE omp4go_inflight_regions gauge\n")
	fmt.Fprintf(w, "omp4go_inflight_regions %d\n", len(regions))
	// Ready-queue depth: tasks sitting in the schedulers of in-flight
	// regions, runnable but not yet claimed. RegionInfo.QueuedTasks
	// covers every holding place — per-member deques, the steal
	// scheduler's overflow list, the list schedulers' shared queue —
	// where the per-member DequeDepth breakdown would miss the latter
	// two. Dependence-stalled tasks are not counted here (they are
	// outstanding but off the scheduler — the
	// omp4go_tasks_depend_stalled_total counter tracks how many ever
	// stalled).
	ready := 0
	for _, ri := range regions {
		ready += ri.QueuedTasks
	}
	fmt.Fprintf(w, "# HELP omp4go_ready_queue_depth Tasks queued runnable in in-flight regions' task schedulers (deques, overflow and shared lists).\n")
	fmt.Fprintf(w, "# TYPE omp4go_ready_queue_depth gauge\n")
	fmt.Fprintf(w, "omp4go_ready_queue_depth %d\n", ready)
	fmt.Fprintf(w, "# HELP omp4go_trace_dropped_events_total Trace/flight-recorder events lost to ring-buffer wrapping.\n")
	fmt.Fprintf(w, "# TYPE omp4go_trace_dropped_events_total counter\n")
	fmt.Fprintf(w, "omp4go_trace_dropped_events_total %d\n", s.rt.TraceDropped())
	// Per-state time attribution from the profiler, when enabled.
	if p := s.rt.prof.Load(); p != nil {
		fmt.Fprintf(w, "# HELP omp4go_time_seconds_total Team-thread time attributed per state and construct label.\n")
		fmt.Fprintf(w, "# TYPE omp4go_time_seconds_total counter\n")
		snap := p.Snapshot()
		_ = snap.WritePrometheus(w)
	}
}

// TraceDropped returns the total events lost to ring-buffer wrapping
// across every trace consumer: the OMP4GO_TRACE tracer, any Tracer
// attached as (or inside a Multi composition of) the event tool, and
// the flight recorder's rings. Safe with live producers.
func (r *Runtime) TraceDropped() uint64 {
	var dropped uint64
	counted := map[*ompt.Tracer]bool{}
	if tr := r.envTracer; tr != nil {
		counted[tr] = true
		dropped += tr.Dropped()
	}
	for _, t := range ompt.Tools(r.loadTool()) {
		if tr, ok := t.(*ompt.Tracer); ok && !counted[tr] {
			counted[tr] = true
			dropped += tr.Dropped()
		}
	}
	if fr := r.flight.Load(); fr != nil {
		dropped += fr.Dropped()
	}
	return dropped
}

// ProfileSnapshot returns the profiler's per-state time-attribution
// snapshot, or nil when profiling is disabled (OMP4GO_PROFILE=off).
func (r *Runtime) ProfileSnapshot() *prof.Snapshot {
	p := r.prof.Load()
	if p == nil {
		return nil
	}
	s := p.Snapshot()
	return &s
}

func (s *MetricsServer) handleProfile(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.rt.ProfileSnapshot()
	if snap == nil {
		http.Error(w, `{"error":"profiler disabled (OMP4GO_PROFILE=off)"}`, http.StatusNotFound)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// DebugSnapshot is the /debug/omp JSON document.
type DebugSnapshot struct {
	ICVs     map[string]any   `json:"icvs"`
	Pool     *PoolDebug       `json:"pool,omitempty"`
	Regions  []RegionInfo     `json:"inflight_regions"`
	Stalls   []StallReport    `json:"stalls,omitempty"`
	Counters map[string]int64 `json:"counters"`
	Profile  *prof.Snapshot   `json:"profile,omitempty"`
}

// PoolDebug is the /debug/omp view of the persistent worker pool.
type PoolDebug struct {
	Idle int `json:"idle"`
	Live int `json:"live"`
	Max  int `json:"max"`
}

// DebugSnapshot captures the runtime state served at /debug/omp.
func (r *Runtime) DebugSnapshot() DebugSnapshot {
	d := DebugSnapshot{
		ICVs: map[string]any{
			"num_threads":       r.GetMaxThreads(),
			"dynamic":           r.GetDynamic(),
			"nested":            r.GetNested(),
			"max_active_levels": r.GetMaxActiveLevels(),
			"thread_limit":      r.GetThreadLimit(),
			"wait_policy":       r.GetWaitPolicy(),
			"schedule":          scheduleEnvString(r.GetSchedule()),
			"task_sched":        r.taskSched.String(),
		},
		Regions:  r.InflightRegions(),
		Stalls:   r.StallReports(),
		Counters: r.MetricsSnapshot().CounterMap(),
		Profile:  r.ProfileSnapshot(),
	}
	idle, total := r.pool.counts()
	d.Pool = &PoolDebug{Idle: idle, Live: total, Max: r.pool.max}
	if d.Regions == nil {
		d.Regions = []RegionInfo{}
	}
	return d
}

func (s *MetricsServer) handleDebug(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.rt.DebugSnapshot())
}
