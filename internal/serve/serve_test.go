package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer boots a Server on a loopback port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func postRun(t *testing.T, s *Server, token string, req RunRequest) (int, RunResponse, *APIError) {
	t.Helper()
	body, _ := json.Marshal(req)
	httpReq, _ := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	httpReq.Header.Set("Authorization", "Bearer "+token)
	res, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(res.Body)
	if res.StatusCode == http.StatusOK {
		var rr RunResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("bad RunResponse %q: %v", raw, err)
		}
		return res.StatusCode, rr, rr.Error
	}
	var wrapped struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(raw, &wrapped); err != nil {
		t.Fatalf("bad error body %q: %v", raw, err)
	}
	return res.StatusCode, RunResponse{}, wrapped.Error
}

func get(t *testing.T, s *Server, path, token string) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, "http://"+s.Addr()+path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(res.Body)
	return res.StatusCode, raw
}

const parallelProgram = `
from omp4py import *

@omp
def compute(n: int) -> float:
    total: float = 0.0
    with omp("parallel for reduction(+:total)"):
        for i in range(n):
            total += 1.0
    return total

print(compute(1000))
`

// TestTwoTenantsConcurrentIsolation is the acceptance e2e: two tenants
// run concurrently with isolated interpreter state and show up as
// separate series on /metrics — under their configured tenant names,
// not their secret tokens.
func TestTwoTenantsConcurrentIsolation(t *testing.T) {
	s := startServer(t, Config{Tokens: []string{"alice=alice-key", "bob=bob-key"}})
	tenants := []struct {
		token string
		base  int
	}{{"alice-key", 100}, {"bob-key", 200}}

	var wg sync.WaitGroup
	for _, tc := range tenants {
		wg.Add(1)
		go func(token string, base int) {
			defer wg.Done()
			// Run 1 plants state in the tenant's module globals.
			st, rr, _ := postRun(t, s, token, RunRequest{Source: fmt.Sprintf("counter = %d", base)})
			if st != http.StatusOK || !rr.OK {
				t.Errorf("%s run1: status %d, resp %+v", token, st, rr)
				return
			}
			// Run 2 reads it back — a leak across tenants would print
			// the other tenant's counter or race to a NameError.
			for i := 1; i <= 3; i++ {
				st, rr, _ = postRun(t, s, token, RunRequest{Source: "counter = counter + 1\nprint(counter)"})
				if st != http.StatusOK || !rr.OK {
					t.Errorf("%s run%d: status %d, resp %+v", token, i+1, st, rr)
					return
				}
				if want := fmt.Sprintf("%d\n", base+i); rr.Stdout != want {
					t.Errorf("%s run%d stdout = %q, want %q", token, i+1, rr.Stdout, want)
				}
			}
			// A parallel region through the full directive pipeline.
			st, rr, _ = postRun(t, s, token, RunRequest{Source: parallelProgram, NumThreads: 4})
			if st != http.StatusOK || !rr.OK {
				t.Errorf("%s parallel run: status %d, resp %+v", token, st, rr)
				return
			}
			if !strings.Contains(rr.Stdout, "1000") {
				t.Errorf("%s parallel stdout = %q, want 1000", token, rr.Stdout)
			}
		}(tc.token, tc.base)
	}
	wg.Wait()

	// Per-tenant series on /metrics: serve counters and runtime
	// counters labeled with each tenant.
	st, raw := get(t, s, "/metrics", "")
	if st != http.StatusOK {
		t.Fatalf("/metrics status %d", st)
	}
	for _, want := range []string{
		`omp4go_serve_runs_total{tenant="alice"} 5`,
		`omp4go_serve_runs_total{tenant="bob"} 5`,
		`omp4go_serve_run_seconds_count{tenant="alice"} 5`,
		`omp4go_regions_forked_total{tenant="alice"}`,
		`omp4go_regions_forked_total{tenant="bob"}`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Histories are per tenant.
	st, raw = get(t, s, "/v1/history", "alice-key")
	if st != http.StatusOK {
		t.Fatalf("/v1/history status %d", st)
	}
	var hist struct {
		Tenant  string         `json:"tenant"`
		History []HistoryEntry `json:"history"`
	}
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatalf("history: %v", err)
	}
	if hist.Tenant != "alice" || len(hist.History) != 5 {
		t.Errorf("alice history = %s / %d entries, want alice / 5", hist.Tenant, len(hist.History))
	}

	// /debug/omp surfaces per-tenant runtime state.
	st, raw = get(t, s, "/debug/omp", "")
	if st != http.StatusOK {
		t.Fatalf("/debug/omp status %d", st)
	}
	for _, want := range []string{`"alice"`, `"bob"`, `"icvs"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/debug/omp missing %s", want)
		}
	}
}

// TestModes runs one program through all four directive modes.
func TestModes(t *testing.T) {
	s := startServer(t, Config{})
	for _, mode := range []string{"pure", "hybrid", "compiled", "compileddt"} {
		st, rr, _ := postRun(t, s, "modes", RunRequest{Source: parallelProgram, Mode: mode, NumThreads: 2})
		if st != http.StatusOK || !rr.OK {
			t.Errorf("mode %s: status %d, resp %+v", mode, st, rr)
			continue
		}
		if !strings.Contains(rr.Stdout, "1000") {
			t.Errorf("mode %s stdout = %q, want 1000", mode, rr.Stdout)
		}
	}
}

// TestQuotaKill: an over-quota program is killed with a typed error
// carrying its source position, and the kill is uncatchable.
// TenantQuotas is keyed by tenant identity, so the token is mapped to
// the "small" tenant name.
func TestQuotaKill(t *testing.T) {
	s := startServer(t, Config{
		Tokens:       []string{"small=small-key"},
		TenantQuotas: map[string]Quota{"small": {MaxSteps: 20_000}},
	})
	src := "x = 0\nwhile True:\n    x = x + 1\n"
	st, rr, apiErr := postRun(t, s, "small-key", RunRequest{Source: src})
	if st != http.StatusOK {
		t.Fatalf("status = %d, want 200 (program errors ride in the response)", st)
	}
	if rr.OK || apiErr == nil {
		t.Fatalf("resp = %+v, want quota kill", rr)
	}
	if apiErr.Code != CodeQuotaKill || apiErr.Quota != "steps" {
		t.Errorf("error = %+v, want code %s quota steps", apiErr, CodeQuotaKill)
	}
	if apiErr.Pos == nil || apiErr.Pos.Line < 2 || apiErr.Pos.File != "main.py" {
		t.Errorf("error position = %+v, want a line inside the loop", apiErr.Pos)
	}
	if rr.Steps == 0 {
		t.Errorf("Steps = 0, want the charged step count")
	}

	// The same tenant's session still works after the kill.
	st, rr2, _ := postRun(t, s, "small-key", RunRequest{Source: "print(x)"})
	if st != http.StatusOK || !rr2.OK {
		t.Fatalf("post-kill run: status %d, resp %+v", st, rr2)
	}

	// A catch-all except cannot swallow the kill.
	caught := "y = 0\ntry:\n    while True:\n        y = y + 1\nexcept Exception:\n    y = -1\nprint(y)\n"
	_, rr3, apiErr3 := postRun(t, s, "small-key", RunRequest{Source: caught})
	if rr3.OK || apiErr3 == nil || apiErr3.Code != CodeQuotaKill {
		t.Errorf("except-wrapped kill: resp %+v err %+v, want uncatchable %s", rr3, apiErr3, CodeQuotaKill)
	}
}

// TestRuntimeErrorPosition: an uncaught MiniPy exception carries its
// type and position, whether an operator raised it or a builtin did (a
// builtin has no position of its own; the call site supplies it).
func TestRuntimeErrorPosition(t *testing.T) {
	s := startServer(t, Config{})
	for _, tc := range []struct{ source, excType string }{
		{"a = 1\nb = a // 0\n", "ZeroDivisionError"},
		{"import math\nb = math.sqrt(-1.0)\n", "ValueError"},
		// A call with too few arguments used to panic the handler: the
		// client saw EOF instead of a response.
		{"from omp4py import *\nomp_set_num_threads()\n", "TypeError"},
		// So did a declared reduction whose combiner or initializer
		// raises, called through its entry.
		{"def comb(a, b):\n    raise ValueError('boom')\n__omp.declare_reduction('m', comb, None)\n" +
			"__omp.reduce_combine('m', 1, 2)\n", "ValueError"},
		{"def init():\n    raise ValueError('boom')\n__omp.declare_reduction('n', init, init)\n" +
			"__omp.reduce_init('n')\n", "ValueError"},
	} {
		st, rr, apiErr := postRun(t, s, "errs", RunRequest{Source: tc.source, File: "oops.py"})
		if st != http.StatusOK || rr.OK || apiErr == nil {
			t.Fatalf("status %d resp %+v, want runtime error in response", st, rr)
		}
		if apiErr.Code != CodeRuntimeError || apiErr.ExcType != tc.excType {
			t.Errorf("error = %+v, want runtime_error/%s", apiErr, tc.excType)
		}
		if apiErr.Pos == nil || apiErr.Pos.Line != 2 || apiErr.Pos.File != "oops.py" {
			t.Errorf("%s: pos = %+v, want oops.py line 2", tc.excType, apiErr.Pos)
		}
	}
}

// TestTypedArgumentErrorPosition: a compileddt tenant passing a float
// to an int parameter gets a TypeError that names the function and the
// parameter and is positioned at the def — captured by a nested
// function or not (the parent commit reported line 0 for the first and
// let the second through).
func TestTypedArgumentErrorPosition(t *testing.T) {
	s := startServer(t, Config{})
	for _, src := range []string{
		"x = 1\ndef f(k: int):\n    return k * 2\nprint(f(2.5))\n",
		"x = 1\ndef f(k: int):\n    def g():\n        return k * 2\n    return g()\nprint(f(2.5))\n",
	} {
		st, rr, apiErr := postRun(t, s, "typed", RunRequest{Source: src, Mode: "compileddt"})
		if st != http.StatusOK || rr.OK || apiErr == nil {
			t.Fatalf("status %d resp %+v, want runtime error in response", st, rr)
		}
		if apiErr.ExcType != "TypeError" || !strings.Contains(apiErr.Message, "f() argument 'k': expected int, got float") {
			t.Errorf("error = %+v, want the TypeError naming f and k", apiErr)
		}
		if apiErr.Pos == nil || apiErr.Pos.Line != 2 {
			t.Errorf("pos = %+v, want line 2", apiErr.Pos)
		}
	}
}

// TestNonASCIISourceRoundTrip: string literals and identifiers outside
// ASCII survive the whole path — JSON request, lexer, interpreter,
// JSON response — byte for byte.
func TestNonASCIISourceRoundTrip(t *testing.T) {
	s := startServer(t, Config{})
	text := "café ✓ \U0001D6D1"
	for _, mode := range []string{"pure", "compileddt"} {
		st, rr, _ := postRun(t, s, "utf8", RunRequest{Source: "é = \"" + text + "\"\nprint(é)\n", Mode: mode})
		if st != http.StatusOK || !rr.OK || rr.Stdout != text+"\n" {
			t.Fatalf("%s: status %d, resp %+v, want stdout %q", mode, st, rr, text+"\n")
		}
	}
}

// TestParseErrorPosition: syntax errors come back as parse_error with
// a position.
func TestParseErrorPosition(t *testing.T) {
	s := startServer(t, Config{})
	st, _, apiErr := postRun(t, s, "errs", RunRequest{Source: "def broken(:\n    pass\n"})
	if st != http.StatusOK || apiErr == nil || apiErr.Code != CodeParseError {
		t.Fatalf("status %d err %+v, want parse_error", st, apiErr)
	}
	if apiErr.Pos == nil || apiErr.Pos.Line != 1 {
		t.Errorf("pos = %+v, want line 1", apiErr.Pos)
	}
}

// TestBodyTooLarge: oversized bodies are rejected with 413.
func TestBodyTooLarge(t *testing.T) {
	s := startServer(t, Config{MaxBodyBytes: 512})
	big := strings.Repeat("# padding\n", 200)
	st, _, apiErr := postRun(t, s, "big", RunRequest{Source: big})
	if st != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", st)
	}
	if apiErr == nil || apiErr.Code != CodeBodyTooLarge {
		t.Errorf("error = %+v, want %s", apiErr, CodeBodyTooLarge)
	}
}

// TestAuth: missing, malformed and unlisted tokens are rejected.
func TestAuth(t *testing.T) {
	s := startServer(t, Config{Tokens: []string{"alice"}})
	req, _ := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/run",
		strings.NewReader(`{"source":"x = 1"}`))
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token: status %d, want 401", res.StatusCode)
	}
	if st, _, _ := postRun(t, s, "mallory", RunRequest{Source: "x = 1"}); st != http.StatusUnauthorized {
		t.Errorf("unlisted token: status %d, want 401", st)
	}
	if st, rr, _ := postRun(t, s, "alice", RunRequest{Source: "x = 1"}); st != http.StatusOK || !rr.OK {
		t.Errorf("listed token: status %d resp %+v, want ok", st, rr)
	}
}

// TestBadRequests: unknown mode and empty source are 400s.
func TestBadRequests(t *testing.T) {
	s := startServer(t, Config{})
	if st, _, apiErr := postRun(t, s, "bad", RunRequest{Source: "x = 1", Mode: "turbo"}); st != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Errorf("unknown mode: status %d err %+v", st, apiErr)
	}
	if st, _, _ := postRun(t, s, "bad", RunRequest{}); st != http.StatusBadRequest {
		t.Errorf("empty source: status %d, want 400", st)
	}
}

// TestOverloadShedding: with the only worker slot occupied and the
// queue full, the next request is shed with 429 + Retry-After.
func TestOverloadShedding(t *testing.T) {
	s := startServer(t, Config{MaxWorkers: 1, QueueDepth: 1})
	// Occupy the only worker slot so admitted requests queue.
	s.slots <- struct{}{}

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, _, _ := postRun(t, s, "queued", RunRequest{Source: "x = 1"})
			results <- st
		}()
	}
	// Wait until both are admitted and waiting on the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want 2", s.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// backlog would become 3 > MaxWorkers+QueueDepth = 2: shed.
	body, _ := json.Marshal(RunRequest{Source: "x = 1"})
	req, _ := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer shed")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", res.StatusCode, raw)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	if !strings.Contains(string(raw), CodeOverloaded) {
		t.Errorf("429 body %q missing %s", raw, CodeOverloaded)
	}

	// Release the slot; the queued requests complete normally.
	<-s.slots
	for i := 0; i < 2; i++ {
		if st := <-results; st != http.StatusOK {
			t.Errorf("queued request finished with %d, want 200", st)
		}
	}

	// The shed shows up in the tenant's counters, labeled with the
	// derived tenant identity (open mode never exposes the token).
	_, raw2 := get(t, s, "/metrics", "")
	want := fmt.Sprintf("omp4go_serve_shed_total{tenant=%q} 1", s.tenantID("shed"))
	if !strings.Contains(string(raw2), want) {
		t.Errorf("/metrics missing shed counter %q", want)
	}
}

// TestGracefulDrain: Shutdown lets an in-flight run finish, refuses
// new work with 503, and retires the tenant runtimes.
func TestGracefulDrain(t *testing.T) {
	s := startServer(t, Config{})
	// A run that takes real time: enough iterations to outlast the
	// drain call, small enough to finish well inside the grace period.
	slow := "total = 0\nfor i in range(400000):\n    total = total + 1\nprint(total)\n"
	type result struct {
		st int
		rr RunResponse
	}
	done := make(chan result, 1)
	go func() {
		st, rr, _ := postRun(t, s, "drainer", RunRequest{Source: slow})
		done <- result{st, rr}
	}()
	// Wait for the run to hold a worker slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never acquired a slot")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	r := <-done
	if r.st != http.StatusOK || !r.rr.OK {
		t.Errorf("in-flight run: status %d resp %+v, want to finish ok", r.st, r.rr)
	}
	if r.rr.Stdout != "400000\n" {
		t.Errorf("in-flight stdout = %q, want full output", r.rr.Stdout)
	}

	// New work is refused (the listener is down or the handler 503s).
	body, _ := json.Marshal(RunRequest{Source: "x = 1"})
	req, _ := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer late")
	if res, err := http.DefaultClient.Do(req); err == nil {
		res.Body.Close()
		if res.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-drain status = %d, want 503 or refused", res.StatusCode)
		}
	}
}

// TestDrainDeadlineKillsRuns: when the drain grace period expires, the
// in-flight run's budget is canceled and the handler still returns a
// typed response.
func TestDrainDeadlineKillsRuns(t *testing.T) {
	s := startServer(t, Config{
		// Effectively unlimited so only the drain cancel can stop it.
		DefaultQuota: Quota{MaxSteps: 1 << 60, MaxAllocs: 1 << 60, MaxWall: time.Hour},
	})
	type result struct {
		st     int
		apiErr *APIError
	}
	done := make(chan result, 1)
	go func() {
		st, _, apiErr := postRun(t, s, "stuck", RunRequest{Source: "x = 0\nwhile True:\n    x = x + 1\n"})
		done <- result{st, apiErr}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never acquired a slot")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.st != http.StatusOK || r.apiErr == nil {
		t.Fatalf("killed run: status %d err %+v, want typed cancel", r.st, r.apiErr)
	}
	if r.apiErr.Code != CodeQuotaKill || r.apiErr.Quota != "canceled" {
		t.Errorf("killed run error = %+v, want %s/canceled", r.apiErr, CodeQuotaKill)
	}
}

// TestStdoutTruncation: output past MaxStdoutBytes is dropped and the
// response flagged.
func TestStdoutTruncation(t *testing.T) {
	s := startServer(t, Config{MaxStdoutBytes: 64})
	src := "for i in range(100):\n    print(\"0123456789\")\n"
	st, rr, _ := postRun(t, s, "chatty", RunRequest{Source: src})
	if st != http.StatusOK || !rr.OK {
		t.Fatalf("status %d resp %+v", st, rr)
	}
	if !rr.StdoutTruncated || len(rr.Stdout) > 64 {
		t.Errorf("truncated=%v len=%d, want truncated ≤ 64 bytes", rr.StdoutTruncated, len(rr.Stdout))
	}
}

// TestStreamRun: stream mode delivers stdout chunks then the final
// response record as NDJSON.
func TestStreamRun(t *testing.T) {
	s := startServer(t, Config{})
	body, _ := json.Marshal(RunRequest{Source: "print(\"chunk-one\")\nprint(\"chunk-two\")\n", Stream: true})
	req, _ := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer streamer")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, _ := io.ReadAll(res.Body)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream = %q, want chunk records plus final response", raw)
	}
	var final RunResponse
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil || !final.OK {
		t.Fatalf("final record %q: err=%v ok=%v", lines[len(lines)-1], err, final.OK)
	}
	joined := strings.Join(lines[:len(lines)-1], "\n")
	if !strings.Contains(joined, "chunk-one") || !strings.Contains(joined, "chunk-two") {
		t.Errorf("chunks %q missing program output", joined)
	}
}

// TestReset drops tenant state.
func TestReset(t *testing.T) {
	s := startServer(t, Config{})
	if _, rr, _ := postRun(t, s, "resetter", RunRequest{Source: "state = 42"}); !rr.OK {
		t.Fatalf("seed run failed: %+v", rr)
	}
	req, _ := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/reset", nil)
	req.Header.Set("Authorization", "Bearer resetter")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/v1/reset status %d", res.StatusCode)
	}
	_, rr, apiErr := postRun(t, s, "resetter", RunRequest{Source: "print(state)"})
	if rr.OK || apiErr == nil || apiErr.ExcType != "NameError" {
		t.Errorf("post-reset run = %+v err %+v, want NameError", rr, apiErr)
	}
}

// TestHistoryRing: the history is bounded and keeps the newest runs.
func TestHistoryRing(t *testing.T) {
	s := startServer(t, Config{HistoryLimit: 3})
	for i := 0; i < 5; i++ {
		if _, rr, _ := postRun(t, s, "hist", RunRequest{Source: fmt.Sprintf("x = %d", i)}); !rr.OK {
			t.Fatalf("run %d failed: %+v", i, rr)
		}
	}
	sess := s.lookupSession(s.tenantID("hist"))
	h := sess.History()
	if len(h) != 3 {
		t.Fatalf("history len = %d, want 3", len(h))
	}
	if h[0].Seq != 3 || h[2].Seq != 5 {
		t.Errorf("history seqs = %d..%d, want 3..5", h[0].Seq, h[2].Seq)
	}
}

// TestFromEnv: the OMP4GO_SERVE_* environment configures the service.
func TestFromEnv(t *testing.T) {
	env := map[string]string{
		EnvAddr:         "127.0.0.1:9999",
		EnvMaxBodyBytes: "2048",
		EnvMaxSteps:     "1234",
		EnvMaxWall:      "2s",
		EnvMaxThreads:   "3",
		EnvMaxWorkers:   "2",
		EnvQueueDepth:   "7",
		EnvHistory:      "9",
		EnvTokens:       "alice, bob, carol=carol-key",
		EnvWatchdog:     "5",
		EnvMaxSessions:  "11",
		EnvSessionIdle:  "90s",
	}
	cfg := FromEnv(func(k string) string { return env[k] })
	if cfg.Addr != "127.0.0.1:9999" || cfg.MaxBodyBytes != 2048 {
		t.Errorf("addr/body = %s/%d", cfg.Addr, cfg.MaxBodyBytes)
	}
	if cfg.DefaultQuota.MaxSteps != 1234 || cfg.DefaultQuota.MaxWall != 2*time.Second || cfg.DefaultQuota.MaxThreads != 3 {
		t.Errorf("quota = %+v", cfg.DefaultQuota)
	}
	if cfg.MaxWorkers != 2 || cfg.QueueDepth != 7 || cfg.HistoryLimit != 9 {
		t.Errorf("workers/queue/history = %d/%d/%d", cfg.MaxWorkers, cfg.QueueDepth, cfg.HistoryLimit)
	}
	if len(cfg.Tokens) != 3 || cfg.Tokens[0] != "alice" || cfg.Tokens[1] != "bob" || cfg.Tokens[2] != "carol=carol-key" {
		t.Errorf("tokens = %v", cfg.Tokens)
	}
	if cfg.Watchdog != 5*time.Second {
		t.Errorf("watchdog = %v", cfg.Watchdog)
	}
	if cfg.MaxSessions != 11 || cfg.SessionIdle != 90*time.Second {
		t.Errorf("sessions/idle = %d/%v", cfg.MaxSessions, cfg.SessionIdle)
	}
	// The "tenant=token" entry authenticates by token and names the
	// tenant.
	s := New(cfg)
	if got := s.tenantID("carol-key"); got != "carol" {
		t.Errorf("tenantID(carol-key) = %q, want carol", got)
	}
	// Unset environment falls back to defaults.
	def := FromEnv(func(string) string { return "" })
	if def.Addr != DefaultAddr || def.DefaultQuota.MaxSteps != DefaultMaxSteps {
		t.Errorf("defaults = %s/%d", def.Addr, def.DefaultQuota.MaxSteps)
	}
	if def.MaxSessions != DefaultMaxSessions || def.SessionIdle != DefaultSessionIdle {
		t.Errorf("default sessions/idle = %d/%v", def.MaxSessions, def.SessionIdle)
	}
}

// TestTokensNotExposed: the bearer token must never appear on the
// unauthenticated observability endpoints or in response bodies — the
// tenant identity is either the allowlist-assigned name or a hash.
func TestTokensNotExposed(t *testing.T) {
	s := startServer(t, Config{Tokens: []string{"alice=super-secret-key", "bare-secret-token"}})
	for _, token := range []string{"super-secret-key", "bare-secret-token"} {
		st, rr, _ := postRun(t, s, token, RunRequest{Source: "x = 1"})
		if st != http.StatusOK || !rr.OK {
			t.Fatalf("%s run: status %d resp %+v", token, st, rr)
		}
		if strings.Contains(rr.Tenant, token) {
			t.Errorf("response tenant %q leaks the token", rr.Tenant)
		}
	}
	if got := s.tenantID("super-secret-key"); got != "alice" {
		t.Errorf("named token tenant = %q, want alice", got)
	}
	for _, path := range []string{"/metrics", "/debug/omp"} {
		_, raw := get(t, s, path, "")
		body := string(raw)
		for _, secret := range []string{"super-secret-key", "bare-secret-token"} {
			if strings.Contains(body, secret) {
				t.Errorf("%s leaks token %q", path, secret)
			}
		}
		if path == "/metrics" && !strings.Contains(body, `tenant="alice"`) {
			t.Errorf("/metrics missing the named tenant series")
		}
	}
	// The bare token's hashed identity is stable and label-safe.
	id := s.tenantID("bare-secret-token")
	if !strings.HasPrefix(id, "t-") || !tokenRe.MatchString(id) {
		t.Errorf("derived tenant id %q, want label-safe t-<hash>", id)
	}
	_, raw := get(t, s, "/metrics", "")
	if !strings.Contains(string(raw), fmt.Sprintf("tenant=%q", id)) {
		t.Errorf("/metrics missing hashed tenant series %q", id)
	}
}

// TestTenantBacklogDoesNotHoldSlots: a tenant with a run in progress
// queues its next request on the session run lock, NOT on a worker
// slot — so one tenant's backlog cannot wedge the pool for others.
func TestTenantBacklogDoesNotHoldSlots(t *testing.T) {
	s := startServer(t, Config{MaxWorkers: 1, QueueDepth: 4})
	// Materialize the hog's session, then hold its run lock as if a
	// run were executing (without occupying the worker slot).
	if _, rr, _ := postRun(t, s, "hog", RunRequest{Source: "x = 1"}); !rr.OK {
		t.Fatalf("seed run failed: %+v", rr)
	}
	sess := s.lookupSession(s.tenantID("hog"))
	sess.acquireRun()

	done := make(chan RunResponse, 1)
	go func() {
		_, rr, _ := postRun(t, s, "hog", RunRequest{Source: "y = 2"})
		done <- rr
	}()
	// Wait until the second hog request is admitted and parked.
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	// It must be waiting on the run lock, leaving the only slot free.
	if n := len(s.slots); n != 0 {
		t.Errorf("parked tenant request holds %d worker slot(s), want 0", n)
	}
	// Another tenant gets through immediately.
	st, rr, _ := postRun(t, s, "bystander", RunRequest{Source: "print(7)"})
	if st != http.StatusOK || !rr.OK || rr.Stdout != "7\n" {
		t.Errorf("bystander starved: status %d resp %+v", st, rr)
	}
	// Release the hog's lock; its queued request completes.
	sess.releaseRun()
	if rr := <-done; !rr.OK {
		t.Errorf("queued hog request = %+v, want ok", rr)
	}
}

// TestSessionCapEviction: the session table is bounded — at the cap
// the LRU idle session is evicted (its state is gone afterwards), and
// when every session is mid-run the request is shed with 429.
func TestSessionCapEviction(t *testing.T) {
	s := startServer(t, Config{MaxSessions: 2})
	if _, rr, _ := postRun(t, s, "first", RunRequest{Source: "state = 1"}); !rr.OK {
		t.Fatalf("first: %+v", rr)
	}
	time.Sleep(5 * time.Millisecond) // order lastUsed deterministically
	if _, rr, _ := postRun(t, s, "second", RunRequest{Source: "state = 2"}); !rr.OK {
		t.Fatalf("second: %+v", rr)
	}
	// Third tenant: evicts "first" (the LRU).
	if _, rr, _ := postRun(t, s, "third", RunRequest{Source: "state = 3"}); !rr.OK {
		t.Fatalf("third: %+v", rr)
	}
	if sess := s.lookupSession(s.tenantID("first")); sess != nil {
		t.Errorf("first session survived past the cap")
	}
	if n := s.evicted.Load(); n != 1 {
		t.Errorf("evicted = %d, want 1", n)
	}
	// The evicted tenant can come back — with fresh state. (Its return
	// evicts the new LRU, "second", keeping the table at the cap.)
	_, rr, apiErr := postRun(t, s, "first", RunRequest{Source: "print(state)"})
	if rr.OK || apiErr == nil || apiErr.ExcType != "NameError" {
		t.Errorf("revived first tenant = %+v err %+v, want NameError", rr, apiErr)
	}

	// With every session's run lock held, there is nothing to evict:
	// a new tenant is shed with 429.
	for _, tok := range []string{"third", "first"} {
		sess := s.lookupSession(s.tenantID(tok))
		if sess == nil {
			t.Fatalf("session %s missing", tok)
		}
		sess.acquireRun()
		defer sess.releaseRun()
	}
	st, _, apiErr := postRun(t, s, "fourth", RunRequest{Source: "x = 1"})
	if st != http.StatusTooManyRequests || apiErr == nil || apiErr.Code != CodeOverloaded {
		t.Errorf("full busy table: status %d err %+v, want 429 %s", st, apiErr, CodeOverloaded)
	}
}

// TestIdleSessionEviction: sessions idle past SessionIdle are torn
// down when new sessions are created.
func TestIdleSessionEviction(t *testing.T) {
	s := startServer(t, Config{SessionIdle: 50 * time.Millisecond})
	if _, rr, _ := postRun(t, s, "sleepy", RunRequest{Source: "x = 1"}); !rr.OK {
		t.Fatalf("seed: %+v", rr)
	}
	time.Sleep(80 * time.Millisecond)
	// Creating another tenant's session grooms the table.
	if _, rr, _ := postRun(t, s, "awake", RunRequest{Source: "y = 1"}); !rr.OK {
		t.Fatalf("groomer: %+v", rr)
	}
	if sess := s.lookupSession(s.tenantID("sleepy")); sess != nil {
		t.Errorf("idle session survived grooming")
	}
}

// TestClientDisconnectCancelsRun: a non-streamed run whose client goes
// away is canceled (typed quota_exceeded/canceled) instead of holding
// its worker slot until the wall quota expires.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s := startServer(t, Config{
		// Effectively unlimited so only the disconnect can stop it.
		DefaultQuota: Quota{MaxSteps: 1 << 60, MaxAllocs: 1 << 60, MaxWall: time.Hour},
	})
	body, _ := json.Marshal(RunRequest{Source: "x = 0\nwhile True:\n    x = x + 1\n"})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer goner")
	errCh := make(chan error, 1)
	go func() {
		res, err := http.DefaultClient.Do(req)
		if err == nil {
			res.Body.Close()
		}
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never acquired a slot")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-errCh
	// The slot comes back promptly — the run did not sit on its
	// hour-long wall quota.
	deadline = time.Now().Add(5 * time.Second)
	for len(s.slots) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned run still holds its worker slot")
		}
		time.Sleep(time.Millisecond)
	}
	// The run was killed with the typed cancel, visible in history.
	sess := s.lookupSession(s.tenantID("goner"))
	if sess == nil {
		t.Fatal("session missing")
	}
	h := sess.History()
	if len(h) != 1 || h[0].Error == nil || h[0].Error.Code != CodeQuotaKill || h[0].Error.Quota != "canceled" {
		t.Errorf("history = %+v, want a %s/canceled entry", h, CodeQuotaKill)
	}
}

// TestCompiledQuotaKill: compiled code polls the execution budget on
// its loop back-edges (as typed loop IR in compileddt, as closures in
// compiled), so a `while True` inside an @omp def dies with the typed
// quota error for a step quota and for a wall-clock one, and the
// tenant's session serves the next request.
func TestCompiledQuotaKill(t *testing.T) {
	spin := "from omp4py import *\n\n@omp\ndef spin(n: int) -> int:\n    k: int = 0\n    while True:\n        k = (k + n) % 1000\n    return k\n\nprint(spin(3))\n"
	// The benchmark's medium request class, far too long to finish: its
	// reduction loop is a compiled kernel running as typed loop IR in
	// compileddt, so the kill must come from the IR's back-edge poll.
	medium := "from omp4py import *\n\n@omp\ndef work(n: int, k: int) -> int:\n    total: int = 0\n    with omp(\"parallel for reduction(+:total)\"):\n        for i in range(n):\n            total += (i * k) % 7\n    return total\n\nprint(work(300000000, 3))\n"
	for _, prog := range []struct {
		name, src      string
		modes          []string
		loLine, hiLine int
	}{
		{"spin", spin, []string{"compiled", "compileddt"}, 6, 7},
		{"medium", medium, []string{"compileddt"}, 7, 8},
	} {
		for _, mode := range prog.modes {
			for _, tc := range []struct {
				quota string
				q     Quota
			}{
				{"steps", Quota{MaxSteps: 20_000, MaxWall: 30 * time.Second}},
				{"deadline", Quota{MaxSteps: 1 << 50, MaxWall: 200 * time.Millisecond}},
			} {
				t.Run(prog.name+"/"+mode+"/"+tc.quota, func(t *testing.T) {
					s := startServer(t, Config{
						Tokens:       []string{"small=small-key"},
						TenantQuotas: map[string]Quota{"small": tc.q},
					})
					start := time.Now()
					st, rr, apiErr := postRun(t, s, "small-key", RunRequest{Source: prog.src, Mode: mode})
					if st != http.StatusOK || rr.OK || apiErr == nil {
						t.Fatalf("status %d resp %+v, want a quota kill", st, rr)
					}
					if apiErr.Code != CodeQuotaKill || apiErr.Quota != tc.quota {
						t.Fatalf("error = %+v, want code %s quota %s", apiErr, CodeQuotaKill, tc.quota)
					}
					if apiErr.Pos == nil || apiErr.Pos.Line < prog.loLine || apiErr.Pos.Line > prog.hiLine {
						t.Errorf("error position = %+v, want a line of the loop", apiErr.Pos)
					}
					if tc.quota == "steps" && rr.Steps == 0 {
						t.Errorf("Steps = 0, want the charged back-edges")
					}
					if d := time.Since(start); d > 10*time.Second {
						t.Errorf("kill took %v", d)
					}
					if _, metrics := get(t, s, "/metrics", ""); prog.name == "medium" &&
						!strings.Contains(string(metrics), `omp4go_compiled_kernel_loops_total{tenant="small"} `) {
						t.Errorf("the medium loop did not run as a compiled kernel")
					}
					st, rr2, _ := postRun(t, s, "small-key", RunRequest{Source: "print(6 * 7)", Mode: mode})
					if st != http.StatusOK || !rr2.OK || rr2.Stdout != "42\n" {
						t.Fatalf("post-kill run: status %d, resp %+v", st, rr2)
					}
				})
			}
		}
	}
}
