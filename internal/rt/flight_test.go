package rt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/metrics"
)

// TestFlightDumpOnDemand drives the recorder end to end: enable it,
// run a region with tasks, trigger a dump, and load both files back.
func TestFlightDumpOnDemand(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	dir := t.TempDir()
	if _, err := r.EnableFlight(dir); err != nil {
		t.Fatalf("EnableFlight: %v", err)
	}
	// Idempotent: a second enable returns the same recorder.
	fr, err := r.EnableFlight(filepath.Join(dir, "other"))
	if err != nil || fr != r.Flight() {
		t.Fatalf("second EnableFlight = %v, %v; want the existing recorder", fr, err)
	}

	ctx := r.NewContext()
	err = r.Parallel(ctx, ParallelOpts{NumThreads: 2, Label: "work"}, func(c *Context) error {
		if c.num == 0 {
			for i := 0; i < 4; i++ {
				if err := c.SubmitTask(TaskOpts{}, func(*Context) error { return nil }); err != nil {
					return err
				}
			}
			return c.TaskWait()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}

	path, err := r.FlightDump("unit test")
	if err != nil {
		t.Fatalf("FlightDump: %v", err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("dump written to %s, want directory %s", path, dir)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	var doc FlightDump
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not a loadable FlightDump: %v\n%s", err, data)
	}
	if doc.Reason != "unit test" {
		t.Errorf("dump reason = %q, want %q", doc.Reason, "unit test")
	}
	if doc.WallTime == "" || doc.TimeNS <= 0 {
		t.Errorf("dump lacks timestamps: wall %q mono %d", doc.WallTime, doc.TimeNS)
	}
	if got := doc.Debug.Counters["omp4go_regions_forked_total"]; got < 1 {
		t.Errorf("dump debug counters regions_forked = %d, want >= 1", got)
	}
	if doc.Profile == nil || doc.Profile.TotalNS <= 0 {
		t.Errorf("dump profile breakdown missing: %+v", doc.Profile)
	}

	trace, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".trace.json")
	if err != nil {
		t.Fatalf("reading trace companion: %v", err)
	}
	var tdoc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &tdoc); err != nil {
		t.Fatalf("trace companion is not valid JSON: %v", err)
	}
	if len(tdoc.TraceEvents) == 0 {
		t.Error("trace companion has no events despite a traced region")
	}

	if got := r.MetricsSnapshot().Counter(metrics.FlightDumps); got != 1 {
		t.Errorf("omp4go_flight_dumps_total = %d, want 1", got)
	}

	// The reason lands sanitized in the filename.
	if base := filepath.Base(path); !strings.Contains(base, "unit_test") {
		t.Errorf("dump filename %q does not carry the sanitized reason", base)
	}
}

// TestFlightDumpDisabled pins the error path.
func TestFlightDumpDisabled(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	if _, err := r.FlightDump("x"); err == nil {
		t.Fatal("FlightDump succeeded without EnableFlight")
	}
}

// TestFlightDumpOnWatchdogStall asserts the watchdog writes a flight
// dump when it reports a stalled region: the acceptance path for
// post-mortem debugging of wedged barriers.
func TestFlightDumpOnWatchdogStall(t *testing.T) {
	out := &syncBuffer{}
	prev := watchdogOut
	watchdogOut = out
	defer func() { watchdogOut = prev }()

	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	dir := t.TempDir()
	if _, err := r.EnableFlight(dir); err != nil {
		t.Fatalf("EnableFlight: %v", err)
	}
	r.StartWatchdog(30 * time.Millisecond)

	release := make(chan struct{})
	done := make(chan error, 1)
	ctx := r.NewContext()
	go func() {
		done <- r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
			if c.num == 1 {
				<-release // wedged before the implicit barrier
			}
			return nil
		})
	}()

	// Wait for the watchdog to announce the dump: it does so after the
	// file is written, so the file the announcement names must load.
	const announce = "omp4go watchdog: flight dump written to "
	var path string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && path == "" {
		for _, line := range strings.Split(out.String(), "\n") {
			if p, ok := strings.CutPrefix(line, announce); ok {
				path = p
				break
			}
		}
		if path == "" {
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("region failed after release: %v", err)
	}
	if path == "" {
		t.Fatalf("watchdog output does not announce a dump:\n%s", out.String())
	}
	if filepath.Dir(path) != dir || !strings.HasSuffix(path, "-stall.json") {
		t.Errorf("announced dump %q is not a stall dump in %s", path, dir)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("announced dump: %v", err)
	}
	var doc FlightDump
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("announced dump %s does not load: %v", path, err)
	}
	if doc.Reason != "stall" {
		t.Errorf("dump reason = %q, want stall", doc.Reason)
	}
}

// TestFlightEnvActivation pins OMP4GO_FLIGHT: the variable enables
// the recorder at init, pointed at the given directory.
func TestFlightEnvActivation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flight")
	r := NewWithEnv(LayerAtomic, fakeEnv(map[string]string{"OMP4GO_FLIGHT": dir}))
	defer r.Shutdown()
	fr := r.Flight()
	if fr == nil {
		t.Fatal("OMP4GO_FLIGHT did not enable the recorder")
	}
	if fr.Dir() != dir {
		t.Errorf("recorder dir = %q, want %q", fr.Dir(), dir)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("dump directory was not created: %v", err)
	}
}

// TestFlightDumpCap asserts the dump cap holds: a stall storm cannot
// fill the disk.
func TestFlightDumpCap(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	if _, err := r.EnableFlight(t.TempDir()); err != nil {
		t.Fatalf("EnableFlight: %v", err)
	}
	var failed bool
	for i := 0; i < maxFlightDumps+4; i++ {
		if _, err := r.FlightDump("cap"); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Errorf("no dump was refused after %d requests (cap %d)", maxFlightDumps+4, maxFlightDumps)
	}
}

// TestFlightRecorderRingCoherence exercises concurrent emitters
// against Dump: the per-thread rings are mutex-protected, so a dump
// taken mid-region must not tear (run under -race via make race).
func TestFlightRecorderRingCoherence(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	if _, err := r.EnableFlight(t.TempDir()); err != nil {
		t.Fatalf("EnableFlight: %v", err)
	}
	ctx := r.NewContext()
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.FlightDump("race"); err != nil {
				return // cap reached; emitters keep running
			}
		}
	}()
	for round := 0; round < 10; round++ {
		err := r.Parallel(ctx, ParallelOpts{NumThreads: 4}, func(c *Context) error {
			if c.num == 0 {
				for i := 0; i < 8; i++ {
					if err := c.SubmitTask(TaskOpts{}, func(*Context) error { return nil }); err != nil {
						return err
					}
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}
