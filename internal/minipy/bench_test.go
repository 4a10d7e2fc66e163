package minipy_test

import (
	"sort"
	"testing"

	"github.com/omp4go/omp4go/internal/minipy"
)

// benchSources is the golden sources in a fixed order, with their
// total token count.
func benchSources(b *testing.B) ([]string, int) {
	srcs := goldenSources(b)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	tokens := 0
	for i, name := range names {
		out[i] = srcs[name]
		toks, err := minipy.Lex(out[i])
		if err != nil {
			b.Fatal(err)
		}
		tokens += len(toks)
	}
	return out, tokens
}

// BenchmarkLex lexes every golden source once per op.
func BenchmarkLex(b *testing.B) {
	srcs, tokens := benchSources(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, src := range srcs {
			if _, err := minipy.Lex(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
}

// BenchmarkParse lexes and parses every golden source once per op;
// its ns/token less BenchmarkLex's is the parser's.
func BenchmarkParse(b *testing.B) {
	srcs, tokens := benchSources(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, src := range srcs {
			if _, err := minipy.Parse(src, "bench.py"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
}
