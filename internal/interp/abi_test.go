package interp_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/ompabi"
	"github.com/omp4go/omp4go/internal/transform"
)

// lowerings are the transformed modules of every registry program, the
// benchmark's tri.py and the transform's golden inputs.
func lowerings(t *testing.T) map[string]*minipy.Module {
	t.Helper()
	srcs := map[string]string{}
	for name, b := range bench.Registry {
		srcs[name] = b.Source
	}
	files, _ := filepath.Glob("../transform/testdata/*.py")
	for _, f := range append(files, "../../benchmark/programs/tri.py") {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[f] = string(b)
	}
	out := map[string]*minipy.Module{}
	for name, src := range srcs {
		mod, err := minipy.Parse(src, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := transform.Module(mod); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = mod
	}
	return out
}

// TestABITable holds interp, transform and the table together: (a) the
// __omp module has exactly the table's entries, (b) every call the
// transform emits into a real program names an entry with an argument
// count its spec accepts, and (c) every entry called with one argument
// too few or one too many raises the one arity TypeError.
func TestABITable(t *testing.T) {
	in := interp.New(interp.Options{Stdout: io.Discard})
	cell, _ := in.Globals().Resolve(ompabi.Module)
	v, _ := cell.Get()
	attrs := v.(*interp.Module).Attrs
	for e := range ompabi.NumEntries {
		b, ok := attrs[ompabi.Specs[e].Name].(*interp.Builtin)
		if !ok || b.ReleasesGIL != ompabi.Specs[e].ReleasesGIL {
			t.Errorf("(a) %s.%s is %v, want a builtin releasing the GIL=%v", ompabi.Module, e, attrs[e.String()], ompabi.Specs[e].ReleasesGIL)
		}
	}
	if len(attrs) != int(ompabi.NumEntries) {
		t.Errorf("(a) %s has %d attributes, the table %d entries", ompabi.Module, len(attrs), ompabi.NumEntries)
	}

	byName := map[string]ompabi.Entry{}
	for e := range ompabi.NumEntries {
		byName[ompabi.Specs[e].Name] = e
	}
	seen := map[ompabi.Entry]bool{}
	for name, mod := range lowerings(t) {
		minipy.Inspect(mod, func(n minipy.Node) bool {
			call, ok := n.(*minipy.Call)
			if !ok {
				return true
			}
			if attr, ok := call.Fn.(*minipy.Attribute); ok {
				if base, ok := attr.X.(*minipy.Name); ok && base.ID == ompabi.Module {
					e, ok := byName[attr.Name]
					switch {
					case !ok:
						t.Errorf("(b) %s: %s.%s is not an entry", name, ompabi.Module, attr.Name)
					case !e.Accepts(len(call.Args)):
						t.Errorf("(b) %s: %s called with %d arguments", name, e, len(call.Args))
					}
					seen[e] = true
				}
			}
			return true
		})
	}
	if !seen[ompabi.ParallelRun] || !seen[ompabi.ForNext] || !seen[ompabi.TaskSubmit] {
		t.Errorf("(b) the walk missed calls: it saw %d entries", len(seen))
	}

	for e := range ompabi.NumEntries {
		min, max, step := e.Arity()
		counts := []int{max + 1}
		if max < 0 {
			counts = []int{min + step - 1} // between two whole groups
		}
		if min > 0 {
			counts = append(counts, min-1)
		}
		for _, n := range counts {
			src := fmt.Sprintf("%s.%s(%s)\n", ompabi.Module, e, strings.TrimSuffix(strings.Repeat("None, ", n), ", "))
			err := interp.New(interp.Options{Stdout: io.Discard}).RunSource(src, "test.py")
			want := regexp.MustCompile(`^` + e.String() + `\(\) takes (no arguments|exactly 1 argument|exactly \d+ arguments|at most \d+ arguments?|from \d+ to \d+ arguments|arguments in groups of \d+) \(` + strconv.Itoa(n) + ` given\)$`)
			var pe *interp.PyError
			if !errors.As(err, &pe) || pe.Type != "TypeError" || !want.MatchString(pe.Msg) || pe.Pos.Line != 1 {
				t.Errorf("(c) %s raised %v, want the arity TypeError at line 1", strings.TrimSpace(src), err)
			}
		}
	}
}

// TestABINamesDeclaredOnce: an entry name that is not also a directive
// or construct name is spelled as a string literal in the table's file
// and in no other non-test Go file of the module.
func TestABINamesDeclaredOnce(t *testing.T) {
	shared := map[string]bool{}
	for _, n := range []directive.Name{directive.NameBarrier, directive.NameMaster, directive.NameFlush, directive.NameTaskloop} {
		shared[string(n)] = true
	}
	names := map[string]bool{}
	for e := range ompabi.NumEntries {
		if n := e.String(); !shared[n] {
			names[n] = true
		}
	}
	if len(names) != 29 {
		t.Fatalf("%d entry names outside the directive vocabulary, want 29", len(names))
	}
	where := map[string][]string{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "../.." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && names[s] {
					where[s] = append(where[s], filepath.ToSlash(path))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range names {
		if got := where[name]; len(got) != 1 || got[0] != "../../internal/ompabi/abi.go" {
			t.Errorf("%q is spelled in %v, want only internal/ompabi/abi.go", name, got)
		}
	}
}

// TestABIDocumented keeps the "Runtime ABI" table of docs/runtime.md on
// the ABI table: one row per entry with its parameters, their kinds and
// defaults, and whether it releases the GIL.
func TestABIDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/runtime.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Runtime ABI\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for e := range ompabi.NumEntries {
		s := &ompabi.Specs[e]
		ps := make([]string, len(s.Params))
		for i, p := range s.Params {
			ps[i] = p.Name + ": " + p.Kind.String()
			if i >= s.Required {
				ps[i] += " = " + p.Kind.Zero()
			}
		}
		if s.Variadic {
			ps = append(ps, "…")
		}
		gil := "no"
		if s.ReleasesGIL {
			gil = "yes"
		}
		row := fmt.Sprintf("| `%s(%s)` | %s |", s.Name, strings.Join(ps, ", "), gil)
		rows = append(rows, row)
		if !strings.Contains(section, row+"\n") {
			t.Errorf("docs/runtime.md Runtime ABI section has no row\n%s", row)
		}
	}
	if n := strings.Count(section, "\n| `"); n != len(rows) {
		t.Errorf("docs/runtime.md Runtime ABI section has %d rows, the table %d:\n%s", n, len(rows), strings.Join(rows, "\n"))
	}
}

// TestOmpGetNumProcs: omp_get_num_procs is the number of processors,
// not the nthreads ICV omp_set_num_threads sets.
func TestOmpGetNumProcs(t *testing.T) {
	var out strings.Builder
	n := runtime.NumCPU()
	src := fmt.Sprintf("from omp4py import *\nomp_set_num_threads(%d)\nprint(omp_get_num_procs(), omp_get_max_threads())\n", n+7)
	if err := interp.New(interp.Options{Stdout: &out}).RunSource(src, "procs.py"); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d %d\n", n, n+7); out.String() != want {
		t.Errorf("printed %q, want %q", out.String(), want)
	}
}
