package rt

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/omp4go/omp4go/internal/directive"
)

// Schedule pairs a scheduling policy with a chunk size (0 means the
// policy default).
type Schedule struct {
	Kind  directive.ScheduleKind
	Chunk int64
}

// icvSet holds the internal control variables defined by OpenMP 3.0.
// The set is guarded by a mutex: ICV reads are off the hot paths.
type icvSet struct {
	mu              sync.Mutex
	numThreads      int           // nthreads-var
	dynamic         bool          // dyn-var
	nested          bool          // nest-var
	runSched        Schedule      // run-sched-var, used by schedule(runtime)
	defSched        Schedule      // def-sched-var, used by schedule(auto)
	maxActiveLevels int           // max-active-levels-var
	threadLimit     int           // thread-limit-var
	stackTrace      bool          // diagnostic: dump worker panics
	waitPolicy      string        // wait-policy-var: "active" or "passive"
	displayEnv      string        // OMP_DISPLAY_ENV: "", "true" or "verbose"
	traceFile       string        // OMP4GO_TRACE output file (tool activation)
	taskSched       string        // OMP4GO_TASK_SCHED: "", "steal" or "list"
	kernelMode      string        // OMP4GO_COMPILE_KERNELS: "", "on" or "off"
	metricsAddr     string        // OMP4GO_METRICS listen address ("" = off)
	watchdog        time.Duration // OMP4GO_WATCHDOG stall threshold (0 = off)
	profileMode     string        // OMP4GO_PROFILE: "", "on" or "off" (default on)
	flightDir       string        // OMP4GO_FLIGHT dump directory ("" = off)
	// extern holds the raw values of the variables the packages above
	// rt parse (see external).
	extern map[string]string
}

func defaultICVs() icvSet {
	return icvSet{
		numThreads:      runtime.NumCPU(),
		dynamic:         false,
		nested:          false,
		runSched:        Schedule{Kind: directive.ScheduleStatic},
		defSched:        Schedule{Kind: directive.ScheduleStatic},
		maxActiveLevels: 1 << 30,
		threadLimit:     1 << 30,
	}
}

// envVar is one row of envTable: an environment variable, how its
// (trimmed, non-empty) value lands in the ICV set and how the
// OMP_DISPLAY_ENV report shows it.
type envVar struct {
	name    string
	verbose bool // reported only by OMP_DISPLAY_ENV=verbose
	parse   func(s *icvSet, v string)
	show    func(s *icvSet) string // nil: never reported
}

// envTable is the environment surface of the runtime: the OMP_*
// variables of OpenMP 3.0, the OMP4GO_* extensions, and the variables
// of the packages above rt. loadEnv parses the rows, display reports
// them in this order, and the knob table in docs/runtime.md lists them
// (TestKnobTableListsEveryVariable). Unparsable values keep the
// default, as libgomp does.
var envTable = []envVar{
	{name: "OMP_DYNAMIC",
		parse: func(s *icvSet, v string) { s.dynamic = parseOnOff(v) == "on" },
		show:  func(s *icvSet) string { return strings.ToUpper(strconv.FormatBool(s.dynamic)) }},
	{name: "OMP_NESTED",
		parse: func(s *icvSet, v string) { s.nested = parseOnOff(v) == "on" },
		show:  func(s *icvSet) string { return strings.ToUpper(strconv.FormatBool(s.nested)) }},
	{name: "OMP_NUM_THREADS",
		// OpenMP allows a comma-separated list for nested levels; the
		// first entry applies to the outermost level.
		parse: func(s *icvSet, v string) { s.numThreads = parseCount(strings.Split(v, ",")[0], 1, s.numThreads) },
		show:  func(s *icvSet) string { return strconv.Itoa(s.numThreads) }},
	{name: "OMP_SCHEDULE",
		parse: func(s *icvSet, v string) {
			if sched, err := ParseScheduleEnv(v); err == nil {
				s.runSched = sched
			}
		},
		show: func(s *icvSet) string { return scheduleEnvString(s.runSched) }},
	{name: "OMP_THREAD_LIMIT",
		parse: func(s *icvSet, v string) { s.threadLimit = parseCount(v, 1, s.threadLimit) },
		show:  func(s *icvSet) string { return strconv.Itoa(s.threadLimit) }},
	{name: "OMP_MAX_ACTIVE_LEVELS",
		parse: func(s *icvSet, v string) { s.maxActiveLevels = parseCount(v, 0, s.maxActiveLevels) },
		show:  func(s *icvSet) string { return strconv.Itoa(s.maxActiveLevels) }},
	{name: "OMP_WAIT_POLICY",
		// The idle loop of pool workers between regions (pool.go):
		// "active" spins before parking, "passive" parks immediately.
		parse: func(s *icvSet, v string) {
			if p, err := parseWaitPolicy(v); err == nil {
				s.waitPolicy = p
			}
		},
		show: func(s *icvSet) string { return strings.ToUpper(waitPolicyOrDefault(s.waitPolicy)) }},
	{name: "OMP_DISPLAY_ENV",
		parse: func(s *icvSet, v string) {
			if strings.EqualFold(v, "verbose") {
				s.displayEnv = "verbose"
			} else if parseOnOff(v) == "on" {
				s.displayEnv = "true"
			}
		}},
	{name: "OMP4GO_TRACE", verbose: true, // tool activation, mirroring OMP_TOOL
		parse: func(s *icvSet, v string) { s.traceFile = v },
		show:  func(s *icvSet) string { return s.traceFile }},
	{name: "OMP4GO_TASK_SCHED", verbose: true,
		// "steal" (default, per-thread work-stealing deques) or "list"
		// (the paper's shared linked-list queue, kept for differential
		// comparison).
		parse: func(s *icvSet, v string) {
			if v = strings.ToLower(v); v == "steal" || v == "list" {
				s.taskSched = v
			}
		},
		show: func(s *icvSet) string { return parseSchedMode(s.taskSched).String() }},
	// "off" forces the closure chain and the interp-bridge lowering, the
	// differential baseline of the typed loop IR and compiled kernels.
	defaultOn("OMP4GO_COMPILE_KERNELS", func(s *icvSet) *string { return &s.kernelMode }),
	{name: "OMP4GO_METRICS", verbose: true, // listen address of serve.go, e.g. ":9090"
		parse: func(s *icvSet, v string) { s.metricsAddr = v },
		show:  func(s *icvSet) string { return s.metricsAddr }},
	{name: "OMP4GO_WATCHDOG", verbose: true,
		// Stall threshold of watchdog.go, e.g. "5s"; a bare number is
		// taken as seconds.
		parse: func(s *icvSet, v string) {
			if d, err := time.ParseDuration(v); err == nil && d > 0 {
				s.watchdog = d
			} else if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				s.watchdog = time.Duration(secs) * time.Second
			}
		},
		show: func(s *icvSet) string {
			if s.watchdog <= 0 {
				return ""
			}
			return s.watchdog.String()
		}},
	// The time-attribution profiler (internal/prof).
	defaultOn("OMP4GO_PROFILE", func(s *icvSet) *string { return &s.profileMode }),
	{name: "OMP4GO_FLIGHT", verbose: true,
		// Flight recorder (flight.go): a directory for stall/kill dumps,
		// or an on-spelling for a default one under the OS temp dir.
		parse: func(s *icvSet, v string) {
			switch parseOnOff(v) {
			case "on":
				s.flightDir = defaultFlightDir()
			case "":
				s.flightDir = v
			}
		},
		show: func(s *icvSet) string { return s.flightDir }},
	external("OMP4GO_SERVE_ADDR"),
	external("OMP4GO_SERVE_MAX_BODY_BYTES"),
	external("OMP4GO_SERVE_MAX_STEPS"),
	external("OMP4GO_SERVE_MAX_ALLOCS"),
	external("OMP4GO_SERVE_MAX_WALL"),
	external("OMP4GO_SERVE_MAX_THREADS"),
	external("OMP4GO_SERVE_MAX_WORKERS"),
	external("OMP4GO_SERVE_QUEUE_DEPTH"),
	external("OMP4GO_SERVE_HISTORY"),
	{name: "OMP4GO_SERVE_TOKENS", verbose: true, parse: external("OMP4GO_SERVE_TOKENS").parse,
		// Tokens are credentials: report how many were set, never their
		// values.
		show: func(s *icvSet) string {
			v := s.extern["OMP4GO_SERVE_TOKENS"]
			if v == "" {
				return ""
			}
			return fmt.Sprintf("(%d tokens)", 1+strings.Count(v, ","))
		}},
	external("OMP4GO_SERVE_WATCHDOG"),
	external("OMP4GO_SERVE_MAX_SESSIONS"),
	external("OMP4GO_SERVE_SESSION_IDLE"),
	external("OMP4GO_SERVE_FLIGHT"),
	external("OMP4GO_MPI_ADDR"),
	external("OMP4GO_MPI_RANK"),
	external("OMP4GO_MPI_SIZE"),
	external("OMP4GO_MPI_COALESCE"),
}

// parseOnOff normalizes the boolean spellings of the environment to
// "on" or "off"; anything else is "".
func parseOnOff(v string) string {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "1", "true", "yes", "on":
		return "on"
	case "0", "false", "no", "off":
		return "off"
	}
	return ""
}

// parseCount reads an integer of at least min, or keeps cur.
func parseCount(v string, min, cur int) int {
	if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n >= min {
		return n
	}
	return cur
}

// defaultOn is the row of an extension that is on unless switched off;
// field holds "", "on" or "off".
func defaultOn(name string, field func(*icvSet) *string) envVar {
	return envVar{name: name, verbose: true,
		parse: func(s *icvSet, v string) {
			if m := parseOnOff(v); m != "" {
				*field(s) = m
			}
		},
		show: func(s *icvSet) string {
			if *field(s) == "off" {
				return "off"
			}
			return "on"
		}}
}

// external is the row of a variable that a package above rt defines
// and parses (internal/serve, internal/mpi; they cannot be imported
// from here). Its raw value is kept so that OMP_DISPLAY_ENV=verbose
// gives one complete picture of a deployment's environment, and those
// packages read their environment through ListedEnv, so a variable
// cannot be parsed there without being listed here.
func external(name string) envVar {
	return envVar{name: name, verbose: true,
		parse: func(s *icvSet, v string) {
			if s.extern == nil {
				s.extern = map[string]string{}
			}
			s.extern[name] = v
		},
		show: func(s *icvSet) string { return s.extern[name] }}
}

// ListedEnv wraps an environment lookup (nil means os.Getenv) for the
// packages whose variables envTable lists as external: reading a name
// the table does not list is a bug there, not a configuration error.
func ListedEnv(getenv func(string) string) func(string) string {
	if getenv == nil {
		getenv = os.Getenv
	}
	return func(name string) string {
		for i := range envTable {
			if envTable[i].name == name {
				return getenv(name)
			}
		}
		panic("rt: environment variable " + name + " is read but not listed in envTable (icv.go)")
	}
}

// loadEnv applies the environment to the ICV set, row by row.
func (s *icvSet) loadEnv(getenv func(string) string) {
	if getenv == nil {
		getenv = os.Getenv
	}
	for i := range envTable {
		if v := strings.TrimSpace(getenv(envTable[i].name)); v != "" {
			envTable[i].parse(s, v)
		}
	}
}

// displayEnvOut receives the OMP_DISPLAY_ENV report at runtime init
// (a package variable so tests can capture it).
var displayEnvOut io.Writer = os.Stderr

// display prints the ICVs in libgomp's OMP_DISPLAY_ENV format.
func (s *icvSet) display(w io.Writer) {
	fmt.Fprintln(w, "OPENMP DISPLAY ENVIRONMENT BEGIN")
	fmt.Fprintf(w, "  _OPENMP = '200805'\n") // OpenMP 3.0
	for i := range envTable {
		row := &envTable[i]
		if row.show != nil && (!row.verbose || s.displayEnv == "verbose") {
			fmt.Fprintf(w, "  %s = '%s'\n", row.name, row.show(s))
		}
	}
	fmt.Fprintln(w, "OPENMP DISPLAY ENVIRONMENT END")
}

func waitPolicyOrDefault(p string) string {
	if p == "" {
		return "passive"
	}
	return p
}

// parseWaitPolicy normalizes a wait-policy value ("active" or
// "passive", any case), rejecting anything else.
func parseWaitPolicy(v string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "active":
		return "active", nil
	case "passive":
		return "passive", nil
	}
	return "", &MisuseError{Construct: "omp_set_wait_policy",
		Msg: "wait policy must be \"active\" or \"passive\", got " + strconv.Quote(v)}
}

// scheduleEnvString renders a Schedule in OMP_SCHEDULE syntax.
func scheduleEnvString(s Schedule) string {
	out := strings.ToUpper(s.Kind.String())
	if s.Chunk > 0 {
		out += "," + strconv.FormatInt(s.Chunk, 10)
	}
	return out
}

// ParseScheduleEnv parses an OMP_SCHEDULE value such as "dynamic,4".
func ParseScheduleEnv(v string) (Schedule, error) {
	parts := strings.SplitN(v, ",", 2)
	kind, err := directive.ParseScheduleKind(parts[0])
	if err != nil {
		return Schedule{}, &MisuseError{Msg: "invalid OMP_SCHEDULE: " + err.Error()}
	}
	sched := Schedule{Kind: kind}
	if len(parts) == 2 {
		chunk, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil || chunk < 1 {
			return Schedule{}, &MisuseError{Msg: "invalid chunk size in OMP_SCHEDULE: " + v}
		}
		sched.Chunk = chunk
	}
	return sched, nil
}
