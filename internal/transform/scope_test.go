package transform_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/minipy/minipytest"
	"github.com/omp4go/omp4go/internal/transform"
)

// TestScopeRecordsAfterTransform: after Module, every def and lambda of
// every registry program and every testdata source, the ones the
// transform generated and rewrote included, carries the record the
// reference scope analysis computes from its transformed body.
func TestScopeRecordsAfterTransform(t *testing.T) {
	srcs := map[string]string{}
	for name, b := range bench.Registry {
		srcs[name+".py"] = b.Source
	}
	files, err := filepath.Glob("testdata/*.py")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[f] = string(src)
	}
	for name, src := range srcs {
		mod, err := minipy.Parse(src, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := transform.Module(mod); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := minipytest.CheckScopes(mod); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
