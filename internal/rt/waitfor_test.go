package rt

import (
	"strings"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/ompt"
)

// findWaiting polls the inflight-region snapshots until a member shows
// the given wait kind, returning that member's view.
func findWaiting(t *testing.T, r *Runtime, kind string) (MemberInfo, bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, reg := range r.InflightRegions() {
			for _, m := range reg.Members {
				if m.Wait == kind && m.WaitNS > 0 {
					return m, true
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return MemberInfo{}, false
}

// TestIntrospectDependWaitFor wedges a dependence chain — an
// undeferred reader whose writer predecessor is blocked mid-flight on
// another thread — and asserts both the introspection snapshot and the
// watchdog stall report name the dependence wait and what it waits on.
func TestIntrospectDependWaitFor(t *testing.T) {
	out := &syncBuffer{}
	prev := watchdogOut
	watchdogOut = out
	defer func() { watchdogOut = prev }()

	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	r.ensureObs()
	r.StartWatchdog(30 * time.Millisecond)

	aStarted := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	ctx := r.NewContext()
	go func() {
		done <- r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
			if c.num != 0 {
				return nil // join barrier; claims and runs the writer
			}
			if err := c.SubmitTask(TaskOpts{Depends: Out("x")}, func(*Context) error {
				close(aStarted)
				<-release
				return nil
			}); err != nil {
				return err
			}
			<-aStarted
			return c.SubmitTask(TaskOpts{IfSet: true, If: false, Depends: In("x")},
				func(*Context) error { return nil })
		})
	}()

	m, ok := findWaiting(t, r, "depend")
	if !ok {
		close(release)
		<-done
		t.Fatal("no member ever showed a depend wait")
	}
	if m.WaitFor != "1 unresolved predecessor(s)" {
		t.Errorf("depend WaitFor = %q, want %q", m.WaitFor, "1 unresolved predecessor(s)")
	}

	// Hold the stall until the watchdog reports it, then check the
	// report names the dependence wait with its age. Member 1's barrier
	// wait can trip a barrier-kind report first, while member 0's
	// depend wait is still under the threshold; the report that member
	// 0 trips is the one of kind depend.
	var found *StallMember
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && found == nil {
		for _, rep := range r.StallReports() {
			if rep.Kind != "depend" {
				continue
			}
			for i, sm := range rep.Waiting {
				if sm.Wait == "depend" {
					found = &rep.Waiting[i]
					break
				}
			}
		}
		if found == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("region failed after release: %v", err)
	}
	if found == nil {
		t.Fatal("watchdog never reported the depend stall")
	}
	if found.WaitFor != "1 unresolved predecessor(s)" {
		t.Errorf("stall WaitFor = %q, want the predecessor count", found.WaitFor)
	}
	if found.WaitNS < (30 * time.Millisecond).Nanoseconds() {
		t.Errorf("stall age %v below the watchdog threshold", time.Duration(found.WaitNS))
	}
	if text := out.String(); !strings.Contains(text, "at depend") ||
		!strings.Contains(text, "on 1 unresolved predecessor(s)") {
		t.Errorf("stderr report does not describe the depend wait:\n%s", text)
	}
}

// TestIntrospectTaskgroupWaitFor parks a member in a taskgroup end
// while its child is blocked on another thread, and asserts the
// snapshot names the taskgroup wait.
func TestIntrospectTaskgroupWaitFor(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	r.ensureObs()

	release := make(chan struct{})
	done := make(chan error, 1)
	ctx := r.NewContext()
	go func() {
		done <- r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
			if c.num != 0 {
				return nil
			}
			c.TaskgroupBegin()
			if err := c.SubmitTask(TaskOpts{}, func(*Context) error {
				<-release
				return nil
			}); err != nil {
				return err
			}
			return c.TaskgroupEnd()
		})
	}()

	m, ok := findWaiting(t, r, "taskgroup")
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("region failed after release: %v", err)
	}
	if !ok {
		t.Fatal("no member ever showed a taskgroup wait")
	}
	if !strings.HasPrefix(m.WaitFor, "taskgroup") {
		t.Errorf("taskgroup WaitFor = %q, want a taskgroup description", m.WaitFor)
	}
}

// TestIntrospectTaskwaitWaitFor does the same for taskwait: the
// member's WaitFor carries the outstanding child count.
func TestIntrospectTaskwaitWaitFor(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	r.ensureObs()

	release := make(chan struct{})
	done := make(chan error, 1)
	ctx := r.NewContext()
	go func() {
		done <- r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
			if c.num != 0 {
				return nil
			}
			if err := c.SubmitTask(TaskOpts{}, func(*Context) error {
				<-release
				return nil
			}); err != nil {
				return err
			}
			return c.TaskWait()
		})
	}()

	m, ok := findWaiting(t, r, "taskwait")
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("region failed after release: %v", err)
	}
	if !ok {
		t.Fatal("no member ever showed a taskwait wait")
	}
	if m.WaitFor != "1 child task(s)" {
		t.Errorf("taskwait WaitFor = %q, want %q", m.WaitFor, "1 child task(s)")
	}
}

// TestTraceDroppedMetric overflows a deliberately tiny tracer ring and
// asserts the loss is visible as omp4go_trace_dropped_events_total on
// the /metrics endpoint — silent trace truncation is the failure mode
// this counter exists to surface.
func TestTraceDroppedMetric(t *testing.T) {
	r := NewWithEnv(LayerAtomic, fakeEnv(map[string]string{
		"OMP4GO_METRICS": "127.0.0.1:0",
	}))
	defer r.Shutdown()
	if r.envServer == nil {
		t.Fatal("OMP4GO_METRICS did not start the endpoint")
	}

	tr := ompt.NewTracer(2) // 2-record ring per thread
	r.SetTool(tr)
	for i := int64(0); i < 8; i++ {
		tr.Emit(ompt.Record{Time: i, Kind: ompt.EvTaskCreate, GTID: 7, A: i})
	}
	if got := r.TraceDropped(); got != 6 {
		t.Fatalf("TraceDropped = %d, want 6 (8 emits into a 2-slot ring)", got)
	}

	body := httpGet(t, "http://"+r.envServer.Addr()+"/metrics")
	if !strings.Contains(body, "omp4go_trace_dropped_events_total 6") {
		t.Errorf("/metrics does not report the dropped events:\n%s", body)
	}

	// The attached-tool count and the env tracer are deduplicated:
	// attaching the same tracer again must not double the number.
	r.SetTool(ompt.Multi(tr, tr))
	if got := r.TraceDropped(); got != 6 {
		t.Errorf("TraceDropped after re-attach = %d, want 6 (no double count)", got)
	}
}
