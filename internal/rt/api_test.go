package rt

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/directive"
)

func TestICVDefaultsAndSetters(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	if r.GetMaxThreads() < 1 {
		t.Fatal("default max threads < 1")
	}
	r.SetNumThreads(7)
	if r.GetMaxThreads() != 7 {
		t.Fatalf("max threads = %d", r.GetMaxThreads())
	}
	r.SetNumThreads(0) // ignored
	if r.GetMaxThreads() != 7 {
		t.Fatal("SetNumThreads(0) should be ignored")
	}
	if r.GetDynamic() {
		t.Fatal("dynamic default should be false")
	}
	r.SetDynamic(true)
	if !r.GetDynamic() {
		t.Fatal("SetDynamic lost")
	}
	if r.GetNested() {
		t.Fatal("nested default should be false")
	}
	r.SetNested(true)
	if !r.GetNested() {
		t.Fatal("SetNested lost")
	}
	r.SetMaxActiveLevels(3)
	if r.GetMaxActiveLevels() != 3 {
		t.Fatal("SetMaxActiveLevels lost")
	}
}

func TestSetScheduleValidation(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	if err := r.SetSchedule(Schedule{Kind: directive.ScheduleDynamic, Chunk: 8}); err != nil {
		t.Fatal(err)
	}
	s := r.GetSchedule()
	if s.Kind != directive.ScheduleDynamic || s.Chunk != 8 {
		t.Fatalf("schedule = %+v", s)
	}
	if err := r.SetSchedule(Schedule{Kind: directive.ScheduleRuntime}); err == nil {
		t.Fatal("schedule(runtime) as run-sched-var should be rejected")
	}
	if err := r.SetSchedule(Schedule{Kind: directive.ScheduleStatic, Chunk: -1}); err == nil {
		t.Fatal("negative chunk should be rejected")
	}
}

func TestEnvICVs(t *testing.T) {
	env := map[string]string{
		"OMP_NUM_THREADS":       "6,2",
		"OMP_SCHEDULE":          "guided,16",
		"OMP_DYNAMIC":           "true",
		"OMP_NESTED":            "1",
		"OMP_THREAD_LIMIT":      "64",
		"OMP_MAX_ACTIVE_LEVELS": "4",
	}
	r := NewWithEnv(LayerAtomic, func(k string) string { return env[k] })
	if r.GetMaxThreads() != 6 {
		t.Fatalf("OMP_NUM_THREADS: %d", r.GetMaxThreads())
	}
	if s := r.GetSchedule(); s.Kind != directive.ScheduleGuided || s.Chunk != 16 {
		t.Fatalf("OMP_SCHEDULE: %+v", s)
	}
	if !r.GetDynamic() || !r.GetNested() {
		t.Fatal("OMP_DYNAMIC/OMP_NESTED not applied")
	}
	if r.GetThreadLimit() != 64 {
		t.Fatalf("OMP_THREAD_LIMIT: %d", r.GetThreadLimit())
	}
	if r.GetMaxActiveLevels() != 4 {
		t.Fatalf("OMP_MAX_ACTIVE_LEVELS: %d", r.GetMaxActiveLevels())
	}
}

func TestEnvInvalidValuesIgnored(t *testing.T) {
	env := map[string]string{
		"OMP_NUM_THREADS": "zero",
		"OMP_SCHEDULE":    "sideways,3",
		"OMP_DYNAMIC":     "maybe",
	}
	r := NewWithEnv(LayerAtomic, func(k string) string { return env[k] })
	if r.GetMaxThreads() < 1 {
		t.Fatal("invalid OMP_NUM_THREADS should leave the default")
	}
	if s := r.GetSchedule(); s.Kind != directive.ScheduleStatic {
		t.Fatalf("invalid OMP_SCHEDULE should leave static, got %+v", s)
	}
	if r.GetDynamic() {
		t.Fatal("OMP_DYNAMIC=maybe should be false")
	}
}

func TestParseScheduleEnv(t *testing.T) {
	s, err := ParseScheduleEnv("dynamic,4")
	if err != nil || s.Kind != directive.ScheduleDynamic || s.Chunk != 4 {
		t.Fatalf("got %+v, %v", s, err)
	}
	if _, err := ParseScheduleEnv("dynamic,-4"); err == nil {
		t.Fatal("negative chunk accepted")
	}
	if _, err := ParseScheduleEnv("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestWTime(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	t0 := r.GetWTime()
	time.Sleep(5 * time.Millisecond)
	t1 := r.GetWTime()
	if t1 <= t0 {
		t.Fatalf("wtime not monotonic: %f then %f", t0, t1)
	}
	if r.GetWTick() <= 0 {
		t.Fatal("wtick must be positive")
	}
}

func TestSimpleLock(t *testing.T) {
	var l Lock
	l.Set()
	if l.Test() {
		t.Fatal("Test acquired a held lock")
	}
	if err := l.Unset(); err != nil {
		t.Fatal(err)
	}
	if !l.Test() {
		t.Fatal("Test failed on a free lock")
	}
	if err := l.Unset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Unset(); err == nil {
		t.Fatal("unset of unheld lock should error")
	}
}

func TestSimpleLockMutualExclusion(t *testing.T) {
	var l Lock
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Set()
				counter++
				if err := l.Unset(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (lost updates)", counter)
	}
}

func TestNestLock(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	ctx := r.NewContext()
	var n NestLock
	n.Set(ctx)
	n.Set(ctx) // re-entrant for the owner
	if got := n.Test(ctx); got != 3 {
		t.Fatalf("Test by owner = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if err := n.Unset(ctx); err != nil {
			t.Fatal(err)
		}
	}
	other := r.NewContext()
	if got := n.Test(other); got != 1 {
		t.Fatalf("Test by other after release = %d, want 1", got)
	}
	if err := n.Unset(ctx); err == nil {
		t.Fatal("unset by non-owner should error")
	}
	if err := n.Unset(other); err != nil {
		t.Fatal(err)
	}
}

func TestNestLockBlocksOtherContexts(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	a := r.NewContext()
	b := r.NewContext()
	var n NestLock
	n.Set(a)
	if got := n.Test(b); got != 0 {
		t.Fatalf("Test by non-owner while held = %d, want 0", got)
	}
	if err := n.Unset(a); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalSectionsExclude(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	ctx := r.NewContext()
	counter := 0
	err := r.Parallel(ctx, ParallelOpts{NumThreads: 8}, func(c *Context) error {
		for i := 0; i < 1000; i++ {
			r.CriticalEnter("sum")
			counter++
			r.CriticalExit("sum")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestNamedCriticalsAreIndependent(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	r.CriticalEnter("a")
	// A different name must not block.
	done := make(chan struct{})
	go func() {
		r.CriticalEnter("b")
		r.CriticalExit("b")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("critical(b) blocked by critical(a)")
	}
	r.CriticalExit("a")
}

func TestAtomicUpdate(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	ctx := r.NewContext()
	cells := make([]int, 4)
	err := r.Parallel(ctx, ParallelOpts{NumThreads: 8}, func(c *Context) error {
		for i := 0; i < 1000; i++ {
			id := uint64(i % len(cells))
			r.AtomicUpdate(id, func() { cells[id]++ })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cells {
		if v != 2000 {
			t.Fatalf("cell %d = %d, want 2000", i, v)
		}
	}
}

func TestDeclaredReductions(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	red := &DeclaredReduction{
		Ident:    "strcat",
		Combine:  func(out, in any) any { return out.(string) + in.(string) },
		Identity: func() any { return "" },
	}
	if err := r.RegisterReduction(red); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterReduction(red); err == nil {
		t.Fatal("redeclaration should error")
	}
	got, ok := r.LookupReduction("strcat")
	if !ok || got.Combine.(func(out, in any) any)("a", "b") != "ab" {
		t.Fatalf("lookup failed: %v %v", got, ok)
	}
	if _, ok := r.LookupReduction("nope"); ok {
		t.Fatal("unknown reduction found")
	}
	var me *MisuseError
	if err := r.RegisterReduction(&DeclaredReduction{}); !errors.As(err, &me) {
		t.Fatalf("incomplete declaration error = %v", err)
	}
}

func TestBuiltinReductionOps(t *testing.T) {
	intCases := []struct {
		op      string
		a, b, w int64
	}{
		{"+", 3, 4, 7}, {"*", 3, 4, 12}, {"-", 3, 4, 7},
		{"&", 0b1100, 0b1010, 0b1000}, {"|", 0b1100, 0b1010, 0b1110},
		{"^", 0b1100, 0b1010, 0b0110},
		{"&&", 1, 1, 1}, {"&&", 1, 0, 0}, {"||", 0, 0, 0}, {"||", 0, 5, 1},
		{"min", 3, -4, -4}, {"max", 3, -4, 3},
	}
	for _, tc := range intCases {
		got, err := ReduceInt(tc.op, tc.a, tc.b)
		if err != nil || got != tc.w {
			t.Errorf("ReduceInt(%q, %d, %d) = %d, %v; want %d", tc.op, tc.a, tc.b, got, err, tc.w)
		}
	}
	if _, err := ReduceInt("%%", 1, 2); err == nil {
		t.Error("unknown int op accepted")
	}
	floatCases := []struct {
		op      string
		a, b, w float64
	}{
		{"+", 1.5, 2.5, 4}, {"*", 2, 3.5, 7}, {"-", 1.5, 2.5, 4},
		{"min", 2, -3, -3}, {"max", 2, -3, 2},
	}
	for _, tc := range floatCases {
		got, err := ReduceFloat(tc.op, tc.a, tc.b)
		if err != nil || got != tc.w {
			t.Errorf("ReduceFloat(%q, %g, %g) = %g, %v; want %g", tc.op, tc.a, tc.b, got, err, tc.w)
		}
	}
	if _, err := ReduceFloat("&", 1, 2); err == nil {
		t.Error("bitwise float op accepted")
	}
}

func TestReductionIdentities(t *testing.T) {
	for _, op := range []string{"+", "*", "-", "&", "|", "^", "&&", "||", "min", "max"} {
		id, err := IntIdentity(op)
		if err != nil {
			t.Fatalf("IntIdentity(%q): %v", op, err)
		}
		for _, v := range []int64{-17, 0, 5, 1 << 40} {
			got, err := ReduceInt(op, id, v)
			if err != nil {
				t.Fatal(err)
			}
			want := v
			if op == "&&" || op == "||" {
				// Logical ops normalize to 0/1.
				if v != 0 {
					want = 1
				} else {
					want = 0
				}
			}
			if got != want {
				t.Errorf("op %q: identity⊕%d = %d, want %d", op, v, got, want)
			}
		}
	}
	for _, op := range []string{"+", "*", "-", "min", "max"} {
		id, err := FloatIdentity(op)
		if err != nil {
			t.Fatalf("FloatIdentity(%q): %v", op, err)
		}
		for _, v := range []float64{-2.5, 0, 3.75} {
			got, err := ReduceFloat(op, id, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != v {
				t.Errorf("op %q: identity⊕%g = %g", op, v, got)
			}
		}
	}
}
