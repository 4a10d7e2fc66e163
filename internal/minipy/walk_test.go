package minipy

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"testing"
)

// everyNodeSource uses every statement and expression type of ast.go at
// least once.
const everyNodeSource = `import a, b as c
from m import x, y as z

@dec(1)
def f(p: int, q=2) -> float:
    global g
    x: float = 1.5
    y = [1, "s", True, None]
    t = (1, 2)
    d = {"k": t, 2: 3}
    s = {1, 2}
    y[0] += -x ** 2
    z = y[1:2:1]
    w = a.b(c, k=d)
    u = 1 if x < 2 <= 3 else 0
    v = x and y or not z
    fn = lambda m, n=1: m + n
    for i in range(3):
        if i:
            continue
        elif x:
            break
        else:
            pass
    while x:
        x -= 1
    with open(w) as h, g():
        pass
    try:
        raise E("x")
    except E as e:
        raise
    finally:
        del y[0]
    assert x, "msg"
    print(u, v)
    def inner():
        nonlocal x
        return x
    return
`

// declaredNodeTypes scans ast.go for the types that implement Stmt or
// Expr (their stmtNode / exprNode marker methods).
func declaredNodeTypes(t *testing.T) map[string]bool {
	t.Helper()
	file, err := goparser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "stmtNode" && fd.Name.Name != "exprNode" {
			continue
		}
		star := fd.Recv.List[0].Type.(*ast.StarExpr)
		types[star.X.(*ast.Ident).Name] = true
	}
	if len(types) < 40 {
		t.Fatalf("found only %d node types in ast.go", len(types))
	}
	return types
}

// reachable collects, by reflection over every field, the nodes under v
// in field order: the enumeration Inspect must agree with, written
// without naming a single node type.
func reachable(v reflect.Value, into *[]Node) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			reachable(v.Elem(), into)
		}
	case reflect.Ptr:
		if v.IsNil() {
			return
		}
		if n, ok := v.Interface().(Node); ok {
			*into = append(*into, n)
		}
		reachable(v.Elem(), into)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reachable(v.Field(i), into)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			reachable(v.Index(i), into)
		}
	}
}

// TestInspectVisitsEveryNode: over a module that contains every node
// type ast.go declares (a new type the source lacks fails here), Inspect
// visits every node the tree holds exactly once (a new type or field
// without an Inspect arm fails here), leaves in source order, and a
// false from the callback prunes the subtree.
func TestInspectVisitsEveryNode(t *testing.T) {
	mod, err := Parse(everyNodeSource, "every.py")
	if err != nil {
		t.Fatal(err)
	}
	var want []Node
	reachable(reflect.ValueOf(mod), &want)

	visits := map[Node]int{}
	seen := map[string]bool{}
	last := Position{}
	Inspect(mod, func(n Node) bool {
		visits[n]++
		seen[reflect.TypeOf(n).Elem().Name()] = true
		switch n.(type) {
		case *Name, *IntLit, *FloatLit, *StrLit, *BoolLit, *NoneLit:
			if p := n.NodePos(); p.Line < last.Line || p.Line == last.Line && p.Col < last.Col {
				t.Errorf("%T at %v visited after the leaf at %v", n, p, last)
			} else {
				last = p
			}
		}
		return true
	})
	for name := range declaredNodeTypes(t) {
		if !seen[name] {
			t.Errorf("no %s was visited: everyNodeSource lacks one, or Inspect has no arm reaching it", name)
		}
	}
	for _, n := range want {
		if visits[n] != 1 {
			t.Errorf("%T at %v visited %d times, want 1", n, n.NodePos(), visits[n])
		}
	}
	if len(visits) != len(want) {
		t.Errorf("Inspect visited %d nodes, the tree holds %d", len(visits), len(want))
	}

	inside := 0
	Inspect(mod, func(n Node) bool {
		if _, ok := n.(*FuncDef); ok {
			return false
		}
		if _, ok := n.(*Module); !ok {
			inside++
		}
		return true
	})
	// Outside the pruned def are the two imports only.
	if inside != 2 {
		t.Errorf("pruning at the def left %d nodes visited, want 2", inside)
	}
}

// TestNamesOfTrickyPrograms pins what Names collects where scoping is
// subtle: it is every identifier mentioned, whatever scope it binds in.
func TestNamesOfTrickyPrograms(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{"g = lambda x=a, y=(lambda: d): x + b\n", []string{"g", "a", "d", "x", "b"}},
		{"try:\n    def add(v):\n        nonlocal total\n        total = total + v * k\n    add(n)\nfinally:\n    n = 0\n",
			[]string{"total", "v", "k", "add", "n"}},
	} {
		mod, err := Parse(tc.src, "names.py")
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		Names(mod, got)
		if len(got) != len(tc.want) {
			t.Errorf("Names = %v, want %v\n%s", got, tc.want, tc.src)
		}
		for _, name := range tc.want {
			if !got[name] {
				t.Errorf("Names lacks %q\n%s", name, tc.src)
			}
		}
	}
}
