package minipy

import (
	"strings"
	"testing"
)

// TestScopeAnnotations: a scope records the annotations it gives its
// names — parameters and declarations anywhere in its own statements,
// in order — and none of a nested function's.
func TestScopeAnnotations(t *testing.T) {
	m := parse(t, `def f(n: int, w: float, a):
    x: int = 0
    for i in range(n):
        if i > 2:
            x: float
        try:
            y: str = "s"
        finally:
            pass
    def g(q: int):
        z: int = 1
`)
	s := m.Body[0].(*FuncDef).Scope
	got := map[string]string{}
	for _, a := range s.Annotations {
		got[a.Name] = strings.TrimPrefix(got[a.Name]+","+a.Type.(*Name).ID, ",")
	}
	want := map[string]string{"n": "int", "w": "float", "x": "int,float", "y": "str"}
	if len(got) != len(want) {
		t.Fatalf("annotations = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("annotations of %s = %q, want %q", name, got[name], w)
		}
	}
	if s := parse(t, "def h(a):\n    return a\n").Body[0].(*FuncDef).Scope; s.Annotations != nil {
		t.Errorf("a scope without annotations has %v", s.Annotations)
	}
}
