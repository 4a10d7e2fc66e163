package bench

import (
	"fmt"
	"sort"
	"strings"

	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/minipy"
)

// StaticFeatures summarizes the OpenMP usage of one benchmark source
// — the static characteristics reported in Table I.
type StaticFeatures struct {
	Name string
	// Directives are the distinct canonical directive names used, in
	// first-appearance order, with reduction operators attached
	// (e.g. "parallel for reduction(+)").
	Directives []string
	// Synchronization is "Explicit barrier" when a standalone
	// barrier directive appears, else "Implicit barriers".
	Synchronization string
	// Clauses counts every clause kind used.
	Clauses map[string]int
}

// AnalyzeStatic extracts the static OpenMP features of a registered
// benchmark by parsing its source and every directive string in it.
func AnalyzeStatic(name string) (*StaticFeatures, error) {
	b, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	mod, err := minipy.Parse(b.Source, name+".py")
	if err != nil {
		return nil, err
	}
	sf := &StaticFeatures{Name: name, Clauses: make(map[string]int)}
	seen := map[string]bool{}
	explicitBarrier := false

	record := func(raw string) error {
		d, err := directive.Parse(raw)
		if err != nil {
			return err
		}
		if d.Name == directive.NameBarrier {
			explicitBarrier = true
		}
		label := string(d.Name)
		for _, cl := range d.Clauses {
			sf.Clauses[cl.Kind.String()]++
			if cl.Kind == directive.ClauseReduction {
				label += fmt.Sprintf(" reduction(%s)", cl.Op)
			}
			if cl.Kind == directive.ClauseIf && d.Name == directive.NameTask {
				label += " with if clause"
			}
		}
		if !seen[label] {
			seen[label] = true
			sf.Directives = append(sf.Directives, label)
		}
		return nil
	}

	// A directive is the context of a one-item with statement or a
	// whole expression statement.
	minipy.Inspect(mod, func(n minipy.Node) bool {
		var ctx minipy.Expr
		switch t := n.(type) {
		case *minipy.With:
			if len(t.Items) == 1 {
				ctx = t.Items[0].Context
			}
		case *minipy.ExprStmt:
			ctx = t.X
		}
		if raw, ok := directiveString(ctx); ok && err == nil {
			err = record(raw)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	if explicitBarrier {
		sf.Synchronization = "Explicit barrier"
	} else {
		sf.Synchronization = "Implicit barriers"
	}
	return sf, nil
}

// directiveString recognizes omp("...") expressions.
func directiveString(e minipy.Expr) (string, bool) {
	call, ok := e.(*minipy.Call)
	if !ok {
		return "", false
	}
	n, ok := call.Fn.(*minipy.Name)
	if !ok || n.ID != "omp" || len(call.Args) != 1 {
		return "", false
	}
	s, ok := call.Args[0].(*minipy.StrLit)
	if !ok {
		return "", false
	}
	return s.V, true
}

// TableI renders the Table I census for the numerical benchmarks.
func TableI() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s | %-60s | %s\n", "Benchmark", "OpenMP Features", "Synchronization")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 100))
	names := make([]string, 0, len(Names))
	for _, n := range Names {
		if Registry[n].Numerical {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		sf, err := AnalyzeStatic(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s | %-60s | %s\n", name,
			strings.Join(sf.Directives, ", "), sf.Synchronization)
	}
	return b.String(), nil
}
