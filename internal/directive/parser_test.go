package directive

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Directive {
	t.Helper()
	d, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return d
}

func mustFail(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("Parse(%q): expected error containing %q, got nil", src, wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("Parse(%q): error %q does not contain %q", src, err, wantSub)
	}
	var se *SyntaxError
	if !asSyntaxError(err, &se) {
		t.Fatalf("Parse(%q): error is %T, want *SyntaxError", src, err)
	}
}

func asSyntaxError(err error, out **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*out = se
	}
	return ok
}

func TestParseSimpleDirectives(t *testing.T) {
	for _, src := range []string{
		"parallel", "for", "sections", "section", "single", "master",
		"critical", "barrier", "atomic", "flush", "ordered", "task", "taskwait",
	} {
		d := mustParse(t, src)
		if string(d.Name) != src {
			t.Errorf("Parse(%q).Name = %q", src, d.Name)
		}
		if len(d.Clauses) != 0 {
			t.Errorf("Parse(%q) has %d clauses, want 0", src, len(d.Clauses))
		}
	}
}

func TestParseCombinedNames(t *testing.T) {
	cases := map[string]Name{
		"parallel for":      NameParallelFor,
		"parallel_for":      NameParallelFor,
		"Parallel For":      NameParallelFor,
		"parallel sections": NameParallelSections,
		"parallel_sections": NameParallelSections,
		"declare reduction(m : omp_out + omp_in)": NameDeclareReduction,
		"declare_reduction(m : omp_out + omp_in)": NameDeclareReduction,
	}
	for src, want := range cases {
		d := mustParse(t, src)
		if d.Name != want {
			t.Errorf("Parse(%q).Name = %q, want %q", src, d.Name, want)
		}
	}
}

func TestParallelForSubsumesParallel(t *testing.T) {
	// "parallel" followed by a non-combining identifier stays plain parallel.
	d := mustParse(t, "parallel num_threads(4)")
	if d.Name != NameParallel {
		t.Fatalf("name = %q, want parallel", d.Name)
	}
	c := d.Find(ClauseNumThreads)
	if c == nil || c.Expr != "4" {
		t.Fatalf("num_threads clause = %+v", c)
	}
}

func TestParseReduction(t *testing.T) {
	d := mustParse(t, "parallel for reduction(+:pi_value)")
	c := d.Find(ClauseReduction)
	if c == nil {
		t.Fatal("no reduction clause")
	}
	if c.Op != "+" || len(c.Vars) != 1 || c.Vars[0] != "pi_value" {
		t.Fatalf("reduction clause = %+v", c)
	}
}

func TestParseReductionOps(t *testing.T) {
	for _, op := range []string{"+", "*", "-", "&", "|", "^", "&&", "||", "min", "max", "myred"} {
		d := mustParse(t, "for reduction("+op+": a, b)")
		c := d.Find(ClauseReduction)
		if c == nil || c.Op != op {
			t.Errorf("op %q: clause = %+v", op, c)
		}
		if len(c.Vars) != 2 || c.Vars[0] != "a" || c.Vars[1] != "b" {
			t.Errorf("op %q: vars = %v", op, c.Vars)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		src   string
		kind  ScheduleKind
		chunk string
	}{
		{"for schedule(static)", ScheduleStatic, ""},
		{"for schedule(dynamic, 300)", ScheduleDynamic, "300"},
		{"for schedule(guided,8)", ScheduleGuided, "8"},
		{"for schedule(auto)", ScheduleAuto, ""},
		{"for schedule(runtime)", ScheduleRuntime, ""},
		{"for schedule(dynamic, n // 2)", ScheduleDynamic, "n // 2"},
		{"for schedule(static, (n+1)*2)", ScheduleStatic, "(n+1)*2"},
	}
	for _, tc := range cases {
		d := mustParse(t, tc.src)
		c := d.Find(ClauseSchedule)
		if c == nil {
			t.Fatalf("%q: no schedule clause", tc.src)
		}
		if c.Sched != tc.kind || c.Expr != tc.chunk {
			t.Errorf("%q: got (%v,%q), want (%v,%q)", tc.src, c.Sched, c.Expr, tc.kind, tc.chunk)
		}
	}
}

func TestParseDataClauses(t *testing.T) {
	d := mustParse(t, "parallel private(a, b) firstprivate(c) shared(d) default(none)")
	if got := d.Find(ClausePrivate).Vars; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("private vars = %v", got)
	}
	if got := d.Find(ClauseFirstprivate).Vars; len(got) != 1 || got[0] != "c" {
		t.Errorf("firstprivate vars = %v", got)
	}
	if got := d.Find(ClauseShared).Vars; len(got) != 1 || got[0] != "d" {
		t.Errorf("shared vars = %v", got)
	}
	if got := d.Find(ClauseDefault).Default; got != DefaultNone {
		t.Errorf("default = %v", got)
	}
}

func TestParseDefaultVariants(t *testing.T) {
	for src, want := range map[string]DefaultKind{
		"parallel default(shared)":       DefaultShared,
		"parallel default(none)":         DefaultNone,
		"parallel default(private)":      DefaultPrivate,
		"parallel default(firstprivate)": DefaultFirstprivate,
	} {
		d := mustParse(t, src)
		if got := d.Find(ClauseDefault).Default; got != want {
			t.Errorf("%q: default = %v, want %v", src, got, want)
		}
	}
	mustFail(t, "parallel default(bogus)", "invalid default")
}

func TestParseIfAndNumThreads(t *testing.T) {
	d := mustParse(t, "task if(n > 30)")
	if c := d.Find(ClauseIf); c == nil || c.Expr != "n > 30" {
		t.Fatalf("if clause = %+v", c)
	}
	d = mustParse(t, "parallel num_threads(2 * k)")
	if c := d.Find(ClauseNumThreads); c == nil || c.Expr != "2 * k" {
		t.Fatalf("num_threads clause = %+v", c)
	}
	// Directive-name modifier (OpenMP 6.0 syntax inside a clause).
	d = mustParse(t, "task if(task: n > 30)")
	if c := d.Find(ClauseIf); c == nil || c.Expr != "n > 30" {
		t.Fatalf("modified if clause = %+v", c)
	}
}

func TestParseNestedParensInIf(t *testing.T) {
	d := mustParse(t, "task if(len(items) > (lo + hi))")
	if c := d.Find(ClauseIf); c == nil || c.Expr != "len(items) > (lo + hi)" {
		t.Fatalf("if clause = %+v", c)
	}
}

func TestParseCollapseOrderedNowait(t *testing.T) {
	d := mustParse(t, "for collapse(2) nowait")
	if c := d.Find(ClauseCollapse); c == nil || c.Expr != "2" {
		t.Fatalf("collapse = %+v", c)
	}
	if !d.Has(ClauseNowait) {
		t.Fatal("nowait missing")
	}
	d = mustParse(t, "for ordered")
	if !d.Has(ClauseOrdered) {
		t.Fatal("ordered missing")
	}
	// Optional nowait argument (OMP4Py extension).
	d = mustParse(t, "for nowait(1)")
	if c := d.Find(ClauseNowait); c == nil || c.Expr != "1" {
		t.Fatalf("nowait(1) = %+v", c)
	}
	mustFail(t, "for collapse(0)", "positive integer")
	mustFail(t, "for collapse(x)", "positive integer")
	mustFail(t, "for collapse(2) ordered", "not permitted together")
}

func TestParseCritical(t *testing.T) {
	d := mustParse(t, "critical")
	if d.Find(ClauseCriticalName) != nil {
		t.Fatal("unnamed critical should have no name clause")
	}
	d = mustParse(t, "critical(update_sum)")
	if c := d.Find(ClauseCriticalName); c == nil || c.Expr != "update_sum" {
		t.Fatalf("critical name = %+v", c)
	}
	mustFail(t, "critical(2bad name)", "not a valid identifier")
}

func TestParseAtomic(t *testing.T) {
	d := mustParse(t, "atomic")
	if d.Find(ClauseAtomicOp) != nil {
		t.Fatal("plain atomic should carry no op clause")
	}
	for _, op := range []string{"read", "write", "update", "capture"} {
		d := mustParse(t, "atomic "+op)
		if c := d.Find(ClauseAtomicOp); c == nil || c.Expr != op {
			t.Errorf("atomic %s: clause = %+v", op, c)
		}
	}
}

func TestParseFlushAndThreadprivate(t *testing.T) {
	d := mustParse(t, "flush")
	if d.Find(ClauseFlushList) != nil {
		t.Fatal("bare flush should have no list")
	}
	d = mustParse(t, "flush(a, b)")
	if c := d.Find(ClauseFlushList); c == nil || len(c.Vars) != 2 {
		t.Fatalf("flush list = %+v", c)
	}
	d = mustParse(t, "threadprivate(counter)")
	if c := d.Find(ClauseFlushList); c == nil || c.Vars[0] != "counter" {
		t.Fatalf("threadprivate list = %+v", c)
	}
	mustFail(t, "threadprivate", "expected '('")
}

func TestParseTaskClauses(t *testing.T) {
	d := mustParse(t, "task untied final(depth > 8) mergeable firstprivate(x)")
	if !d.Has(ClauseUntied) || !d.Has(ClauseMergeable) {
		t.Fatal("untied/mergeable missing")
	}
	if c := d.Find(ClauseFinal); c == nil || c.Expr != "depth > 8" {
		t.Fatalf("final = %+v", c)
	}
}

func TestParseDeclareReduction(t *testing.T) {
	d := mustParse(t, "declare reduction(merge : omp_out + omp_in) initializer(omp_priv = 0)")
	dr := d.DeclaredReduction
	if dr == nil {
		t.Fatal("no declared reduction payload")
	}
	if dr.Ident != "merge" || dr.Combiner != "omp_out + omp_in" || dr.Initializer != "0" {
		t.Fatalf("declared reduction = %+v", dr)
	}
	d = mustParse(t, "declare reduction(m2 : max(omp_out, omp_in))")
	if d.DeclaredReduction.Initializer != "" {
		t.Fatalf("unexpected initializer %q", d.DeclaredReduction.Initializer)
	}
	mustFail(t, "declare reduction(: x)", "identifier : combiner")
	mustFail(t, "declare reduction(a.b : x)", "not a valid name")
}

func TestSemicolonClauseSeparators(t *testing.T) {
	// OpenMP 6.0 lexical convention adopted by OMP4Py.
	d := mustParse(t, "parallel for; reduction(+:s); schedule(dynamic, 4)")
	if d.Name != NameParallelFor {
		t.Fatalf("name = %q", d.Name)
	}
	if d.Find(ClauseReduction) == nil || d.Find(ClauseSchedule) == nil {
		t.Fatal("clauses missing with semicolon separators")
	}
	d = mustParse(t, "parallel private(a), shared(b)")
	if d.Find(ClausePrivate) == nil || d.Find(ClauseShared) == nil {
		t.Fatal("clauses missing with comma separators")
	}
}

func TestValidationRejectsWrongClauses(t *testing.T) {
	mustFail(t, "barrier nowait", "not valid on directive")
	mustFail(t, "for num_threads(2)", "not valid on directive")
	mustFail(t, "single reduction(+:x)", "not valid on directive")
	mustFail(t, "master private(x)", "not valid on directive")
	mustFail(t, "taskwait if(x)", "not valid on directive")
	mustFail(t, "parallel schedule(static)", "not valid on directive")
}

func TestValidationRejectsDuplicates(t *testing.T) {
	mustFail(t, "parallel if(a) if(b)", "at most once")
	mustFail(t, "for schedule(static) schedule(dynamic)", "at most once")
	mustFail(t, "parallel default(none) default(shared)", "at most once")
}

func TestValidationDataSharingConflicts(t *testing.T) {
	mustFail(t, "parallel private(x) shared(x)", "appears in both")
	mustFail(t, "parallel for reduction(+:x) private(x)", "appears in both")
	// firstprivate + lastprivate on the same variable is conforming.
	mustParse(t, "for firstprivate(x) lastprivate(x)")
	// The same rules for variable lists on both sides of the length at
	// which validate's variable table moves from a scan to a map.
	vars := func(n int) string {
		names := make([]string, n)
		for i := range names {
			names[i] = "v" + strings.Repeat("x", i)
		}
		return strings.Join(names, ", ")
	}
	for _, n := range []int{7, 8, 9, 40} {
		list := vars(n)
		mustParse(t, "parallel private("+list+") shared(w)")
		mustParse(t, "for firstprivate("+list+") lastprivate("+list+")")
		mustFail(t, "parallel private("+list+") shared(v)", `variable "v" appears in both private and shared`)
		mustFail(t, "parallel private("+list+") shared("+list+")", `variable "v" appears in both`)
		last := "v" + strings.Repeat("x", n-1)
		mustFail(t, "parallel for private("+list+") reduction(+:"+last+")", `variable "`+last+`" appears in both private and reduction`)
	}
}

func TestParseErrors(t *testing.T) {
	mustFail(t, "", "expected directive name")
	mustFail(t, "frobnicate", "unknown directive")
	mustFail(t, "parallel wibble(x)", "unknown clause")
	mustFail(t, "parallel if(", "unbalanced")
	mustFail(t, "parallel private()", "at least one variable")
	mustFail(t, "parallel private(a,)", "trailing ','")
	mustFail(t, "for reduction(+ x)", "expected ':'")
	mustFail(t, "for reduction(+:)", "expected variable name")
	mustFail(t, "for schedule(sideways)", "unknown schedule kind")
	mustFail(t, "for schedule(runtime, 4)", "does not accept a chunk")
	mustFail(t, "parallel )", "unexpected")
}

func TestStringRoundTrip(t *testing.T) {
	// String() output must itself parse back to an equivalent directive.
	srcs := []string{
		"parallel for reduction(+:pi_value) schedule(dynamic,300)",
		"parallel num_threads(4) default(none) private(a,b) shared(c)",
		"task if(n > 30) untied final(d > 2) mergeable",
		"single copyprivate(x) nowait",
		"critical(name1)",
		"sections lastprivate(v)",
		"for collapse(3) schedule(guided,7)",
		"flush(p,q)",
		"atomic capture",
	}
	for _, src := range srcs {
		d1 := mustParse(t, src)
		d2 := mustParse(t, d1.String())
		if d1.String() != d2.String() {
			t.Errorf("round trip mismatch:\n  first:  %s\n  second: %s", d1, d2)
		}
		if d1.Name != d2.Name || len(d1.Clauses) != len(d2.Clauses) {
			t.Errorf("%q: structural mismatch after round trip", src)
		}
	}
}

func TestIsStandalone(t *testing.T) {
	for src, want := range map[string]bool{
		"barrier":          true,
		"taskwait":         true,
		"flush":            true,
		"threadprivate(x)": true,
		"parallel":         false,
		"task":             false,
		"single":           false,
	} {
		if got := mustParse(t, src).IsStandalone(); got != want {
			t.Errorf("IsStandalone(%q) = %v, want %v", src, got, want)
		}
	}
}
