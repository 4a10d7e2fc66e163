package compile

import (
	"reflect"
	"testing"

	"github.com/omp4go/omp4go/internal/minipy"
)

// TestNestedReferencesOfTrickyPrograms pins the capture analysis where
// scoping is subtle. A default evaluates in the enclosing function: a
// names the outer a without being captured, d is captured because a
// lambda nested in the default mentions it. A nonlocal declaration in a
// def nested under try/finally captures like any other mention.
func TestNestedReferencesOfTrickyPrograms(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want map[string]bool
	}{
		{"def f(a, b, c, d):\n    g = lambda x=a, y=(lambda: d): x + b\n    return g() + c\n",
			map[string]bool{"x": true, "b": true, "d": true}},
		{"def f(n):\n    total = 0\n    k = 1\n    try:\n        def add(v):\n            nonlocal total\n            total = total + v * k\n        add(n)\n    finally:\n        n = 0\n    return total\n",
			map[string]bool{"total": true, "v": true, "k": true}},
	} {
		mod, err := minipy.Parse(tc.src, "nested.py")
		if err != nil {
			t.Fatal(err)
		}
		got := mod.Body[0].(*minipy.FuncDef).Scope.Nested
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("nested references = %v, want %v\n%s", got, tc.want, tc.src)
		}
	}
}
