package transform

import "github.com/omp4go/omp4go/internal/minipy"

// renameInStmts rewrites Name nodes (and the names of nonlocal/global
// declarations) per the renames map, in place. In the body of a nested
// FuncDef/Lambda it leaves alone the names that function's parameters
// rebind (shadowing); the function's decorators and parameter defaults
// are not rewritten.
func renameInStmts(body []minipy.Stmt, renames map[string]string) {
	for _, s := range body {
		renameIn(s, renames)
	}
}

func renameIn(root minipy.Node, renames map[string]string) {
	renameIDs := func(ids []string) {
		for i, id := range ids {
			if nn, ok := renames[id]; ok {
				ids[i] = nn
			}
		}
	}
	minipy.Inspect(root, func(n minipy.Node) bool {
		switch t := n.(type) {
		case *minipy.Name:
			if nn, ok := renames[t.ID]; ok {
				t.ID = nn
			}
		case *minipy.Nonlocal:
			renameIDs(t.Names)
		case *minipy.Global:
			renameIDs(t.Names)
		case *minipy.AnnAssign:
			// The annotation names a type, not a variable.
			renameIn(t.Target, renames)
			renameIn(t.Value, renames)
			return false
		case *minipy.FuncDef:
			if sub := shadowed(renames, t.Params); len(sub) > 0 {
				renameInStmts(t.Body, sub)
			}
			return false
		case *minipy.Lambda:
			if sub := shadowed(renames, t.Params); len(sub) > 0 {
				renameIn(t.Body, sub)
			}
			return false
		}
		return true
	})
}

// shadowed removes renames whose names are rebound by params.
func shadowed(renames map[string]string, params []minipy.Param) map[string]string {
	out := make(map[string]string, len(renames))
	for k, v := range renames {
		out[k] = v
	}
	for _, p := range params {
		delete(out, p.Name)
	}
	return out
}

// collectNames gathers every identifier mentioned in the statements,
// nested function bodies included. Used by default(none) checking and
// default(private).
func collectNames(body []minipy.Stmt) map[string]bool {
	out := make(map[string]bool)
	for _, s := range body {
		minipy.Names(s, out)
	}
	return out
}
