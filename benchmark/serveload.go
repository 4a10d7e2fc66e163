package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/serve"
	"github.com/omp4go/omp4go/internal/transform"
)

// Request classes of the serve-closed mix and their shares.
const (
	classShort = iota
	classMedium
	classStream
	classBad
	numClasses
)

var classNames = [numClasses]string{"short", "medium", "stream", "malformed"}

// classShare is the cumulative distribution: 70 % short, 18 % medium,
// 8 % stream, 4 % malformed.
var classShare = [numClasses]int{70, 88, 96, 100}

const (
	mediumIters = 60_000 // iterations of the medium class's parallel loop
	streamLines = 40     // prints of one streamed request
	seqLen      = 4096   // requests generated per client; the sequence wraps
)

// request is one generated /v1/run call and what a correct reply
// holds: the exact stdout, or the typed error code.
type request struct {
	class      int
	body       []byte
	source     string
	wantStdout string
	wantCode   string
	// add is what a session-state script adds to the tenant's acc; its
	// expected stdout is the client's running total at send time.
	add int64
}

// genRequests builds one client's request sequence from its seed.
func genRequests(seed int64, n int, threads int) []request {
	rng := rand.New(rand.NewSource(seed))
	mediumWant := map[int64]string{}
	reqs := make([]request, n)
	for i := range reqs {
		pick := rng.Intn(100)
		class := 0
		for pick >= classShare[class] {
			class++
		}
		r := request{class: class}
		rr := serve.RunRequest{}
		switch class {
		case classShort:
			k := 1 + rng.Int63n(9)
			switch rng.Intn(3) {
			case 0: // session state
				r.source = fmt.Sprintf("acc = acc + %d\nprint(acc)\n", k)
				r.add = k
			case 1: // a function definition and a call
				r.source = fmt.Sprintf("def sq(x):\n    return x * x + %d\nprint(sq(%d))\n", k, k+3)
				r.wantStdout = fmt.Sprintf("%d\n", (k+3)*(k+3)+k)
			default: // a loop over a list, string formatting
				r.source = fmt.Sprintf("xs = []\nfor i in range(8):\n    xs.append(i * %d)\ns = 0\nfor x in xs:\n    s += x\nprint(\"sum\", s)\n", k)
				r.wantStdout = fmt.Sprintf("sum %d\n", 28*k)
			}
		case classMedium:
			k := 2 + rng.Int63n(5)
			r.source = fmt.Sprintf(`from omp4py import *

@omp
def work(n: int, k: int) -> int:
    total: int = 0
    with omp("parallel for reduction(+:total)"):
        for i in range(n):
            total += (i * k) %% 7
    return total

print(work(%d, %d))
`, mediumIters, k)
			if _, ok := mediumWant[k]; !ok {
				total := int64(0)
				for i := int64(0); i < mediumIters; i++ {
					total += (i * k) % 7
				}
				mediumWant[k] = fmt.Sprintf("%d\n", total)
			}
			r.wantStdout = mediumWant[k]
			rr.Mode, rr.NumThreads = "compileddt", threads
		case classStream:
			k := 1 + rng.Int63n(9)
			r.source = fmt.Sprintf("for i in range(%d):\n    print(\"line\", i * %d)\n", streamLines, k)
			var b strings.Builder
			for i := int64(0); i < streamLines; i++ {
				fmt.Fprintf(&b, "line %d\n", i*k)
			}
			r.wantStdout = b.String()
			rr.Stream = true
		case classBad:
			if rng.Intn(2) == 0 {
				r.source, r.wantCode = "def broken(:\n    pass\n", serve.CodeParseError
			} else {
				r.source, r.wantCode = "print(1 // 0)\n", serve.CodeRuntimeError
			}
		}
		rr.Source = r.source
		r.body, _ = json.Marshal(&rr) // a struct of strings, ints and bools always encodes
		reqs[i] = r
	}
	return reqs
}

type serveClosed struct {
	srv     *serve.Server
	url     string
	clients []*serveClient
	// pipelineNS caches, per distinct source, the time parse and
	// transform take when called directly: the part of the server-side
	// run that is pipeline, not execution.
	pipeMu     sync.Mutex
	pipelineNS map[string][2]int64
	shed       int
}

type serveClient struct {
	id    int
	token string
	http  *http.Client
	reqs  []request
	next  int
	acc   int64 // the session variable's value after every reply so far
}

func newServeClosed() *serveClosed { return &serveClosed{} }

func (w *serveClosed) setup(e *env) error {
	w.srv = serve.New(serve.Config{Addr: "127.0.0.1:0", MaxWorkers: e.n,
		DefaultQuota: serve.Quota{MaxThreads: e.n}})
	if err := w.srv.Start(); err != nil {
		return err
	}
	w.url = "http://" + w.srv.Addr() + "/v1/run"
	w.pipelineNS = map[string][2]int64{}
	w.clients = nil
	for i := 0; i < e.n; i++ {
		c := &serveClient{id: i, token: fmt.Sprintf("bench-tenant-%d", i),
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
			reqs: genRequests(e.seed*1000+int64(i), seqLen, e.n)}
		w.clients = append(w.clients, c)
		// Warm-up: initialise the session state the short scripts use,
		// then one request of each class so both interpreters exist.
		init := request{class: classShort, source: "acc = 0\nprint(acc)\n", wantStdout: "0\n"}
		init.body, _ = json.Marshal(&serve.RunRequest{Source: init.source})
		warm := []request{init}
		seen := map[int]bool{}
		for _, r := range c.reqs {
			if !seen[r.class] && r.add == 0 {
				seen[r.class] = true
				warm = append(warm, r)
			}
		}
		for _, r := range warm {
			if _, _, err := w.do(c, &r); err != nil {
				return fmt.Errorf("warm-up %s: %w", classNames[r.class], err)
			}
		}
	}
	return nil
}

func (w *serveClosed) close() {
	if w.srv == nil {
		return
	}
	for _, c := range w.clients {
		c.http.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = w.srv.Shutdown(ctx) // every client has returned; nothing is in flight
	cancel()
	w.srv = nil
}

// do sends one request and validates the reply. It returns the
// client-side latency and the server-side ElapsedMS.
func (w *serveClosed) do(c *serveClient, r *request) (time.Duration, float64, error) {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(r.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var final serve.RunResponse
	stdout := ""
	if r.class == classStream && resp.StatusCode == http.StatusOK {
		// NDJSON: {"stdout": ...} chunks, then the RunResponse.
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var rec struct {
				Stdout *string `json:"stdout"`
				serve.RunResponse
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return 0, 0, fmt.Errorf("stream record: %w", err)
			}
			if rec.Stdout != nil && rec.Tenant == "" {
				b.WriteString(*rec.Stdout)
			} else {
				final = rec.RunResponse
			}
		}
		if err := sc.Err(); err != nil {
			return 0, 0, err
		}
		stdout = b.String()
	} else {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode == http.StatusTooManyRequests {
				w.pipeMu.Lock()
				w.shed++
				w.pipeMu.Unlock()
			}
			return 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		if err := json.Unmarshal(data, &final); err != nil {
			return 0, 0, err
		}
		stdout = final.Stdout
	}
	d := time.Since(t0)
	switch {
	case r.wantCode != "":
		// An expected typed error is a success.
		if final.OK || final.Error == nil || final.Error.Code != r.wantCode {
			return d, 0, fmt.Errorf("want error %s, got ok=%v error=%v", r.wantCode, final.OK, final.Error)
		}
	case !final.OK:
		return d, 0, fmt.Errorf("run failed: %v", final.Error)
	default:
		want := r.wantStdout
		if r.add != 0 {
			c.acc += r.add
			want = fmt.Sprintf("%d\n", c.acc)
		}
		if stdout != want {
			return d, 0, fmt.Errorf("stdout %q, want %q", stdout, want)
		}
	}
	return d, final.ElapsedMS, nil
}

// measure is the closed loop: every client sends its next request
// only after the previous reply was read and validated.
func (w *serveClosed) measure(e *env, deadline time.Time) {
	rows := [numClasses]*row{}
	for class := range rows {
		rows[class] = e.row(classNames[class], true)
	}
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := &c.reqs[c.next%len(c.reqs)]
				c.next++
				opID := e.opID()
				root := e.tr.begin(layerServe, "POST /v1/run "+classNames[r.class], -1, opID, c.id)
				d, elapsedMS, err := w.do(c, r)
				e.tr.end(root)
				if err == nil && e.tr.on {
					w.attribute(e, root, opID, c.id, r, d, elapsedMS)
				}
				e.record(rows[r.class], d, err)
			}
		}(c)
	}
	wg.Wait()
}

// attribute splits a traced request between layers from outside: the
// server reports how long the run took (ElapsedMS), the rest of the
// latency is serve's own (HTTP, JSON, admission, session lock); of the
// run, the front-end share is what parse + transform cost when called
// directly on the same source.
func (w *serveClosed) attribute(e *env, root, opID, tid int, r *request, d time.Duration, elapsedMS float64) {
	runNS := int64(elapsedMS * 1e6)
	if runNS > int64(d) {
		runNS = int64(d)
	}
	w.pipeMu.Lock()
	pipe, ok := w.pipelineNS[r.source]
	w.pipeMu.Unlock()
	if !ok {
		var mod *minipy.Module
		pipe[0] = int64(medianOf(3, func() { mod, _ = minipy.Parse(r.source, "main.py") }))
		if mod != nil {
			t0 := time.Now()
			_, _ = transform.Module(mod) // rewrites mod in place, so once
			pipe[1] = int64(time.Since(t0))
		}
		w.pipeMu.Lock()
		w.pipelineNS[r.source] = pipe
		w.pipeMu.Unlock()
	}
	front := pipe[0] + pipe[1]
	if front > runNS {
		front = runNS
	}
	exec := layerInterp
	if r.class == classMedium {
		exec = layerCompile
	}
	// Only the short class enters the separation check: medium and
	// stream requests are dominated by the run by design.
	e.tr.setSplit(root, map[string]int64{layerMinipy: pipe[0], layerTransform: pipe[1], exec: runNS - front})
	if r.class != classShort {
		e.tr.exclude(root)
	}
}

func (w *serveClosed) layers(e *env) {
	med := func(class int) float64 { return median(e.byName[classNames[class]].ms) }
	e.layer["serve.short_p50_ms"] = med(classShort)
	e.layer["serve.medium_p50_ms"] = med(classMedium)
	e.layer["serve.stream_p50_ms"] = med(classStream)
	var all []float64
	for class := 0; class < numClasses; class++ {
		all = append(all, e.byName[classNames[class]].ms...)
	}
	e.layer["serve.req_p99_ms"] = percentile(all, 99)
	if e.attempted > 0 {
		e.layer["serve.shed_ratio"] = float64(w.shed) / float64(e.attempted)
	}
	// serve.overhead_ms: median over traced short requests of latency
	// minus the server-reported run time.
	var over []float64
	e.tr.mu.Lock()
	for _, s := range e.tr.spans {
		if s.split != nil && !s.Outside {
			var run int64
			for _, ns := range s.split {
				run += ns
			}
			over = append(over, float64(s.End-s.Start-run)/1e6)
		}
	}
	e.tr.mu.Unlock()
	e.layer["serve.overhead_ms"] = median(over)
}
