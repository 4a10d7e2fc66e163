package directive_test

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/minipy"
)

// corpus returns every directive string of the registry programs and
// the transform's clause testdata, in a fixed order: the string
// argument of each omp("...") call.
func corpus(tb testing.TB) []string {
	tb.Helper()
	var srcs []string
	for _, b := range bench.Registry {
		srcs = append(srcs, b.Source)
	}
	files, err := filepath.Glob("../transform/testdata/*.py")
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	var out []string
	for _, src := range srcs {
		mod, err := minipy.Parse(src, "corpus.py")
		if err != nil {
			tb.Fatal(err)
		}
		minipy.Inspect(mod, func(n minipy.Node) bool {
			if c, ok := n.(*minipy.Call); ok && len(c.Args) == 1 {
				fn, isName := c.Fn.(*minipy.Name)
				s, isStr := c.Args[0].(*minipy.StrLit)
				if isName && isStr && fn.ID == "omp" {
					out = append(out, s.V)
				}
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// FuzzDirective parses a directive string. The property: a
// *SyntaxError or a directive, never a panic.
func FuzzDirective(f *testing.F) {
	for _, d := range corpus(f) {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := directive.Parse(src)
		var se *directive.SyntaxError
		switch {
		case err != nil && !errors.As(err, &se):
			t.Fatalf("Parse(%q) returned the untyped error %v", src, err)
		case err == nil && d == nil:
			t.Fatalf("Parse(%q) returned neither a directive nor an error", src)
		}
	})
}

// BenchmarkDirectiveParse parses every corpus directive once per op.
func BenchmarkDirectiveParse(b *testing.B) {
	dirs := corpus(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, d := range dirs {
			if _, err := directive.Parse(d); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dirs)), "ns/directive")
}
