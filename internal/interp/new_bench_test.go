package interp

import (
	"io"
	"testing"
)

// BenchmarkNew builds one interpreter per op, the set-up every load
// and every serve session pays.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		New(Options{Stdout: io.Discard, Getenv: func(string) string { return "" }})
	}
}
