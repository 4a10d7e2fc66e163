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

// transformedSources returns every registry program and every testdata
// source after Module, by file name.
func transformedSources(t *testing.T) map[string]*minipy.Module {
	t.Helper()
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

// TestScopeRecordsAfterTransform: after Module, every def and lambda of
// every registry program and every testdata source, the ones the
// transform generated and rewrote included, carries the record the
// reference scope analysis computes from its transformed body.
func TestScopeRecordsAfterTransform(t *testing.T) {
	for name, mod := range transformedSources(t) {
		if err := minipytest.CheckScopes(mod); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// ompCall matches x as the generated call __omp.entry(...).
func ompCall(x minipy.Expr, entry string) (*minipy.Call, bool) {
	call, ok := x.(*minipy.Call)
	if !ok {
		return nil, false
	}
	attr, ok := call.Fn.(*minipy.Attribute)
	if !ok || attr.Name != entry {
		return nil, false
	}
	base, ok := attr.X.(*minipy.Name)
	return call, ok && base.ID == "__omp"
}

// isName reports whether x is the name id.
func isName(x minipy.Expr, id string) bool {
	n, ok := x.(*minipy.Name)
	return ok && n.ID == id
}

// stmtLists returns the statement lists n holds directly.
func stmtLists(n minipy.Node) [][]minipy.Stmt {
	switch t := n.(type) {
	case *minipy.Module:
		return [][]minipy.Stmt{t.Body}
	case *minipy.FuncDef:
		return [][]minipy.Stmt{t.Body}
	case *minipy.If:
		return [][]minipy.Stmt{t.Body, t.Else}
	case *minipy.While:
		return [][]minipy.Stmt{t.Body}
	case *minipy.For:
		return [][]minipy.Stmt{t.Body}
	case *minipy.With:
		return [][]minipy.Stmt{t.Body}
	case *minipy.Try:
		out := [][]minipy.Stmt{t.Body, t.Final}
		for _, h := range t.Handlers {
			out = append(out, h.Body)
		}
		return out
	}
	return nil
}

// nestSource adds what the registry and the testdata do not lower: a
// collapsed nest, an ordered loop, a runtime chunk and a privatized
// loop variable.
const nestSource = `
from omp4py import *

@omp
def f(n, k):
    s = 0
    with omp("parallel for collapse(2) reduction(+:s) schedule(dynamic, k)"):
        for i in range(n):
            for j in range(1, n, 2):
                s += i * j
    with omp("parallel for ordered private(i)"):
        for i in range(n):
            with omp("ordered"):
                s += i
    return s
`

// TestWorkshareRecords: after Module, every for_bounds lowering in the
// registry programs and the testdata sources is followed by its for_init
// and a while that carries a record, and the record says what the
// lowered statements say — matched here by their shape, the way the
// compiled tier once recognized them. No other while has a record.
func TestWorkshareRecords(t *testing.T) {
	mods := transformedSources(t)
	mod, err := minipy.Parse(nestSource, "nest.py")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transform.Module(mod); err != nil {
		t.Fatal(err)
	}
	mods["nest.py"] = mod
	var collapsed, ordered, lastPrivate int
	for name, mod := range mods {
		lowerings, records := 0, 0
		minipy.Inspect(mod, func(n minipy.Node) bool {
			if wh, ok := n.(*minipy.While); ok && wh.Workshare != nil {
				records++
			}
			for _, ss := range stmtLists(n) {
				for k, s := range ss {
					as, ok := s.(*minipy.Assign)
					if !ok {
						continue
					}
					boundsCall, ok := ompCall(as.Value, "for_bounds")
					if !ok {
						continue
					}
					lowerings++
					b := as.Targets[0].(*minipy.Name).ID
					var es *minipy.ExprStmt
					var wh *minipy.While
					if k+2 < len(ss) {
						es, _ = ss[k+1].(*minipy.ExprStmt)
						wh, _ = ss[k+2].(*minipy.While)
					}
					if es == nil || wh == nil {
						t.Errorf("%s: %s = for_bounds(...) is not followed by for_init and a while", name, b)
						continue
					}
					initCall, ok := ompCall(es.X, "for_init")
					if !ok || !isName(initCall.Args[0], b) {
						t.Errorf("%s: the statement after %s = for_bounds(...) is not its for_init", name, b)
						continue
					}
					if next, ok := ompCall(wh.Cond, "for_next"); !ok || !isName(next.Args[0], b) || len(wh.Body) != 1 {
						t.Errorf("%s: the while after %s's for_init is not `while for_next(%s)` over one chunk loop", name, b, b)
						continue
					}
					ws := wh.Workshare
					if ws == nil {
						t.Errorf("%s: the while over %s has no record", name, b)
						continue
					}

					last := false
					for _, s := range ss[k+3:] {
						if ifs, ok := s.(*minipy.If); ok {
							if c, ok := ompCall(ifs.Cond, "for_last"); ok && isName(c.Args[0], b) {
								last = true
							}
						}
					}
					kind, _ := initCall.Args[1].(*minipy.StrLit)
					ord, _ := initCall.Args[3].(*minipy.BoolLit)
					if ws.Bounds != b || kind == nil || ws.Kind != kind.V || ws.Chunk != initCall.Args[2] ||
						ord == nil || ws.Ordered != ord.V || ws.LastPrivate != last {
						t.Errorf("%s: the record over %s is %+v; the lowering says kind %v, chunk %s, ordered %v, lastprivate %v",
							name, b, *ws, initCall.Args[1], minipy.Unparse(initCall.Args[2]), initCall.Args[3], last)
					}
					if last {
						lastPrivate++
					}
					if ws.Ordered {
						ordered++
					}

					// The loop variables: the chunk loop's target, or under
					// collapse the targets of lv_d = __omp_idx_N[d] after the
					// unravel.
					loop := wh.Body[0].(*minipy.For)
					var vars []*minipy.Name
					if levels := len(boundsCall.Args) / 3; levels == 1 {
						vars = []*minipy.Name{loop.Target.(*minipy.Name)}
					} else {
						collapsed++
						for _, s := range loop.Body[1 : 1+levels] {
							vars = append(vars, s.(*minipy.Assign).Targets[0].(*minipy.Name))
						}
					}
					if len(vars) != len(ws.Vars) {
						t.Errorf("%s: the record over %s has %d loop variables, the lowering %d", name, b, len(ws.Vars), len(vars))
						continue
					}
					for i := range vars {
						if ws.Vars[i] != vars[i] {
							t.Errorf("%s: loop variable %d of the record over %s is not the lowering's %s node", name, i, b, vars[i].ID)
						}
					}
				}
			}
			return true
		})
		if records != lowerings {
			t.Errorf("%s: %d whiles carry a record, for %d for_bounds lowerings", name, records, lowerings)
		}
	}
	if collapsed == 0 || ordered == 0 || lastPrivate == 0 {
		t.Errorf("the sources lower %d collapsed, %d ordered and %d lastprivate loops; the test needs each", collapsed, ordered, lastPrivate)
	}
}
