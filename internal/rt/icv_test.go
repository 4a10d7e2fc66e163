package rt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/omp4go/omp4go/internal/directive"
)

func TestParseScheduleEnvEdgeCases(t *testing.T) {
	cases := []struct {
		in    string
		kind  directive.ScheduleKind
		chunk int64
		bad   bool
	}{
		{in: "static", kind: directive.ScheduleStatic},
		{in: "dynamic,4", kind: directive.ScheduleDynamic, chunk: 4},
		{in: "guided,300", kind: directive.ScheduleGuided, chunk: 300},
		// Kinds without a chunk, including the ones only meaningful as
		// ICV values.
		{in: "auto", kind: directive.ScheduleAuto},
		{in: "runtime", kind: directive.ScheduleRuntime},
		// Whitespace and case variations around both fields.
		{in: "  DYNAMIC , 8 ", kind: directive.ScheduleDynamic, chunk: 8},
		{in: "Guided,1", kind: directive.ScheduleGuided, chunk: 1},
		// Invalid chunk sizes: zero, negative, non-numeric, trailing
		// comma (empty chunk field).
		{in: "static,0", bad: true},
		{in: "dynamic,-4", bad: true},
		{in: "dynamic,four", bad: true},
		{in: "dynamic,", bad: true},
		{in: "static,1,2", bad: true},
		// Unknown kind.
		{in: "fastest", bad: true},
		{in: "", bad: true},
	}
	for _, c := range cases {
		s, err := ParseScheduleEnv(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseScheduleEnv(%q) = %+v, want error", c.in, s)
				continue
			}
			var mis *MisuseError
			if !errors.As(err, &mis) {
				t.Errorf("ParseScheduleEnv(%q) error %T, want *MisuseError", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseScheduleEnv(%q): %v", c.in, err)
			continue
		}
		if s.Kind != c.kind || s.Chunk != c.chunk {
			t.Errorf("ParseScheduleEnv(%q) = %v,%d, want %v,%d", c.in, s.Kind, s.Chunk, c.kind, c.chunk)
		}
	}
}

func fakeEnv(vars map[string]string) func(string) string {
	return func(k string) string { return vars[k] }
}

func TestLoadEnvWaitPolicy(t *testing.T) {
	cases := []struct {
		val  string
		want string
	}{
		{"", "passive"}, // default
		{"active", "active"},
		{"ACTIVE", "active"},
		{" Passive ", "passive"},
		{"aggressive", "passive"}, // unknown values keep the default
	}
	for _, c := range cases {
		r := NewWithEnv(LayerAtomic, fakeEnv(map[string]string{"OMP_WAIT_POLICY": c.val}))
		if got := r.GetWaitPolicy(); got != c.want {
			t.Errorf("OMP_WAIT_POLICY=%q: GetWaitPolicy() = %q, want %q", c.val, got, c.want)
		}
	}
}

func TestDisplayEnv(t *testing.T) {
	var buf bytes.Buffer
	prev := displayEnvOut
	displayEnvOut = &buf
	defer func() { displayEnvOut = prev }()

	NewWithEnv(LayerAtomic, fakeEnv(map[string]string{
		"OMP_DISPLAY_ENV": "true",
		"OMP_NUM_THREADS": "6",
		"OMP_SCHEDULE":    "dynamic,4",
		"OMP_WAIT_POLICY": "active",
	}))
	out := buf.String()
	for _, want := range []string{
		"OPENMP DISPLAY ENVIRONMENT BEGIN",
		"_OPENMP = '200805'",
		"OMP_NUM_THREADS = '6'",
		"OMP_SCHEDULE = 'DYNAMIC,4'",
		"OMP_WAIT_POLICY = 'ACTIVE'",
		"OPENMP DISPLAY ENVIRONMENT END",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("display output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "OMP4GO_TRACE") {
		t.Errorf("non-verbose display should not list OMP4GO_TRACE:\n%s", out)
	}

	buf.Reset()
	NewWithEnv(LayerAtomic, fakeEnv(map[string]string{
		"OMP_DISPLAY_ENV": "VERBOSE",
		"OMP4GO_TRACE":    "/tmp/out.json",
	}))
	if out := buf.String(); !strings.Contains(out, "OMP4GO_TRACE = '/tmp/out.json'") {
		t.Errorf("verbose display missing OMP4GO_TRACE:\n%s", out)
	}

	buf.Reset()
	NewWithEnv(LayerAtomic, fakeEnv(map[string]string{"OMP_DISPLAY_ENV": "false"}))
	if buf.Len() != 0 {
		t.Errorf("OMP_DISPLAY_ENV=false printed:\n%s", buf.String())
	}
}

// TestDisplayEnvObservability covers the observability variables in
// the OMP_DISPLAY_ENV report: verbose mode lists OMP4GO_METRICS and
// OMP4GO_WATCHDOG with the parsed values, plain mode omits them.
func TestDisplayEnvObservability(t *testing.T) {
	cases := []struct {
		name    string
		env     map[string]string
		want    []string
		notWant []string
	}{
		{
			name: "verbose defaults",
			env:  map[string]string{"OMP_DISPLAY_ENV": "verbose"},
			want: []string{"OMP4GO_METRICS = ''", "OMP4GO_WATCHDOG = ''",
				"OMP4GO_PROFILE = 'on'", "OMP4GO_FLIGHT = ''"},
		},
		{
			name: "verbose with profiler off",
			env: map[string]string{
				"OMP_DISPLAY_ENV": "verbose",
				"OMP4GO_PROFILE":  "off",
			},
			want: []string{"OMP4GO_PROFILE = 'off'"},
		},
		{
			name: "verbose with metrics addr",
			env: map[string]string{
				"OMP_DISPLAY_ENV": "verbose",
				// An address that cannot bind still displays: display
				// reports the ICV, not the listener.
				"OMP4GO_METRICS": "127.0.0.1:0",
			},
			want: []string{"OMP4GO_METRICS = '127.0.0.1:0'"},
		},
		{
			name: "verbose with watchdog threshold",
			env: map[string]string{
				"OMP_DISPLAY_ENV": "verbose",
				"OMP4GO_WATCHDOG": "750ms",
			},
			want: []string{"OMP4GO_WATCHDOG = '750ms'"},
		},
		{
			name: "verbose with invalid watchdog keeps it off",
			env: map[string]string{
				"OMP_DISPLAY_ENV": "verbose",
				"OMP4GO_WATCHDOG": "soon",
			},
			want: []string{"OMP4GO_WATCHDOG = ''"},
		},
		{
			name: "verbose lists serve variables unset",
			env:  map[string]string{"OMP_DISPLAY_ENV": "verbose"},
			want: []string{
				"OMP4GO_SERVE_ADDR = ''",
				"OMP4GO_SERVE_MAX_STEPS = ''",
				"OMP4GO_SERVE_QUEUE_DEPTH = ''",
				"OMP4GO_SERVE_MAX_SESSIONS = ''",
				"OMP4GO_SERVE_SESSION_IDLE = ''",
			},
		},
		{
			name: "verbose echoes serve configuration",
			env: map[string]string{
				"OMP_DISPLAY_ENV":             "verbose",
				"OMP4GO_SERVE_ADDR":           "127.0.0.1:8500",
				"OMP4GO_SERVE_MAX_STEPS":      "1000000",
				"OMP4GO_SERVE_MAX_WALL":       "5s",
				"OMP4GO_SERVE_MAX_BODY_BYTES": "65536",
			},
			want: []string{
				"OMP4GO_SERVE_ADDR = '127.0.0.1:8500'",
				"OMP4GO_SERVE_MAX_STEPS = '1000000'",
				"OMP4GO_SERVE_MAX_WALL = '5s'",
				"OMP4GO_SERVE_MAX_BODY_BYTES = '65536'",
			},
		},
		{
			name: "verbose lists mpi variables unset",
			env:  map[string]string{"OMP_DISPLAY_ENV": "verbose"},
			want: []string{
				"OMP4GO_MPI_ADDR = ''",
				"OMP4GO_MPI_RANK = ''",
				"OMP4GO_MPI_SIZE = ''",
				"OMP4GO_MPI_COALESCE = ''",
			},
		},
		{
			name: "verbose echoes mpi rank configuration",
			env: map[string]string{
				"OMP_DISPLAY_ENV":     "verbose",
				"OMP4GO_MPI_ADDR":     "127.0.0.1:7311",
				"OMP4GO_MPI_RANK":     "2",
				"OMP4GO_MPI_SIZE":     "4",
				"OMP4GO_MPI_COALESCE": "65536",
			},
			want: []string{
				"OMP4GO_MPI_ADDR = '127.0.0.1:7311'",
				"OMP4GO_MPI_RANK = '2'",
				"OMP4GO_MPI_SIZE = '4'",
				"OMP4GO_MPI_COALESCE = '65536'",
			},
		},
		{
			name: "non-verbose omits mpi variables",
			env: map[string]string{
				"OMP_DISPLAY_ENV": "true",
				"OMP4GO_MPI_ADDR": "127.0.0.1:7311",
			},
			notWant: []string{"OMP4GO_MPI_ADDR"},
		},
		{
			name: "verbose redacts serve tokens",
			env: map[string]string{
				"OMP_DISPLAY_ENV":     "verbose",
				"OMP4GO_SERVE_TOKENS": "alice,bob",
			},
			want:    []string{"OMP4GO_SERVE_TOKENS = '(2 tokens)'"},
			notWant: []string{"alice", "bob"},
		},
		{
			name:    "plain display omits omp4go extensions",
			env:     map[string]string{"OMP_DISPLAY_ENV": "true", "OMP4GO_WATCHDOG": "1s", "OMP4GO_SERVE_ADDR": ":8500"},
			want:    []string{"OPENMP DISPLAY ENVIRONMENT BEGIN"},
			notWant: []string{"OMP4GO_METRICS", "OMP4GO_WATCHDOG", "OMP4GO_SERVE", "OMP4GO_PROFILE", "OMP4GO_FLIGHT"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			prev := displayEnvOut
			displayEnvOut = &buf
			defer func() { displayEnvOut = prev }()
			r := NewWithEnv(LayerAtomic, fakeEnv(c.env))
			defer r.Shutdown()
			r.StopWatchdog() // disarm anything OMP4GO_WATCHDOG armed
			out := buf.String()
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("display output missing %q:\n%s", want, out)
				}
			}
			for _, notWant := range c.notWant {
				if strings.Contains(out, notWant) {
					t.Errorf("display output should not contain %q:\n%s", notWant, out)
				}
			}
		})
	}
}

// TestEnvTraceActivation covers the OMP4GO_TRACE path end to end: the
// variable attaches the built-in tracer at init and FlushTrace writes
// the Chrome trace file.
func TestEnvTraceActivation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	r := NewWithEnv(LayerAtomic, fakeEnv(map[string]string{"OMP4GO_TRACE": path}))
	if r.EnvTracer() == nil || r.Tool() == nil {
		t.Fatalf("OMP4GO_TRACE did not attach the tracer")
	}
	ctx := r.NewContext()
	err := r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error { return nil })
	if err != nil {
		t.Fatalf("parallel failed: %v", err)
	}
	if err := r.FlushTrace(); err != nil {
		t.Fatalf("FlushTrace: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	if !bytes.Contains(data, []byte("traceEvents")) {
		t.Fatalf("trace file lacks traceEvents:\n%s", data)
	}

	// Without the variable, FlushTrace is a no-op.
	r2 := newTestRuntime(LayerAtomic)
	if r2.EnvTracer() != nil {
		t.Fatalf("tracer attached without OMP4GO_TRACE")
	}
	if err := r2.FlushTrace(); err != nil {
		t.Fatalf("no-op FlushTrace: %v", err)
	}
}

// TestListedEnv: internal/serve and internal/mpi read their variables
// through ListedEnv. A name envTable lists reads through; one it lacks
// — a variable that would be parsed but never displayed — is refused.
func TestListedEnv(t *testing.T) {
	getenv := ListedEnv(fakeEnv(map[string]string{"OMP4GO_SERVE_ADDR": ":8500", "OMP_NOT_LISTED": "1"}))
	if got := getenv("OMP4GO_SERVE_ADDR"); got != ":8500" {
		t.Errorf("listed variable read %q, want :8500", got)
	}
	if got := getenv("OMP4GO_MPI_RANK"); got != "" {
		t.Errorf("unset listed variable read %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("reading a variable envTable does not list did not panic")
		}
	}()
	getenv("OMP_NOT_LISTED")
}

// TestKnobTableListsEveryVariable keeps the knob table of
// docs/runtime.md on envTable: every variable the runtime parses or
// displays has a row there.
func TestKnobTableListsEveryVariable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/runtime.md")
	if err != nil {
		t.Fatal(err)
	}
	_, knobs, _ := strings.Cut(string(doc), "\n## Knobs\n")
	knobs, _, _ = strings.Cut(knobs, "\n## ")
	for _, row := range envTable {
		if !strings.Contains(knobs, "| `"+row.name+"` |") {
			t.Errorf("docs/runtime.md knob table has no row for %s", row.name)
		}
	}
}
