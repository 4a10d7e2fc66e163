package minipy_test

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/minipy/minipytest"
)

var updateAST = flag.Bool("update", false, "rewrite testdata/ast/*.golden from the current parser")

// goldenSources returns every source the AST goldens pin, by golden
// name: the registry programs, the layered benchmark's tri.py and the
// transform's clause testdata.
func goldenSources(t testing.TB) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	for name, b := range bench.Registry {
		srcs["registry_"+name] = b.Source
	}
	files, err := filepath.Glob("../transform/testdata/*.py")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../../benchmark/programs/tri.py")
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(f)
		srcs["file_"+base[:len(base)-len(filepath.Ext(base))]] = string(src)
	}
	return srcs
}

// TestASTGolden pins Unparse(Parse(src)) for every golden source byte
// for byte. The goldens were written by the parser that had one
// function per binary precedence level, and are regenerated only when
// the grammar changes on purpose.
func TestASTGolden(t *testing.T) {
	srcs := goldenSources(t)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mod, err := minipy.Parse(srcs[name], name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := minipy.Unparse(mod)
		file := filepath.Join("testdata", "ast", name+".golden")
		if *updateAST {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s parses to a different tree than %s:\n%s", name, file, got)
		}
	}
}

// TestScopeRecords: after Parse, every def and lambda of every golden
// source carries the scope record the reference analysis computes, and
// every construct's bound-outside answer is the reference's.
func TestScopeRecords(t *testing.T) {
	for name, src := range goldenSources(t) {
		mod, err := minipy.Parse(src, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := minipytest.CheckScopes(mod); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := minipytest.CheckBoundOutside(mod); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzParse parses fuzzed source. The property: a *minipy.Error with
// a position, or a module whose Unparse → Parse → Unparse is a byte
// fixpoint and whose defs and lambdas carry the reference scope records
// (TestScopeRecords).
func FuzzParse(f *testing.F) {
	srcs := goldenSources(f)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(srcs[name])
	}
	// Shapes the unparser once rendered without the parentheses they
	// need.
	f.Add("x = (a ** b) ** c\n")
	f.Add("x = a + (not b) == -(not c)\n")
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := minipy.Parse(src, "fuzz.py")
		if err != nil {
			var pe *minipy.Error
			if !errors.As(err, &pe) || pe.Pos.Line < 1 || pe.Pos.Col < 0 {
				t.Fatalf("Parse returned %v (%T), want a positioned *minipy.Error", err, err)
			}
			return
		}
		if err := minipytest.CheckScopes(mod); err != nil {
			t.Fatal(err)
		}
		if err := minipytest.CheckBoundOutside(mod); err != nil {
			t.Fatal(err)
		}
		out1 := minipy.Unparse(mod)
		mod2, err := minipy.Parse(out1, "unparsed.py")
		if err != nil {
			t.Fatalf("unparsed module does not parse: %v\n%s", err, out1)
		}
		if out2 := minipy.Unparse(mod2); out2 != out1 {
			t.Fatalf("Unparse → Parse → Unparse is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", out1, out2)
		}
	})
}
