package transform

import "github.com/omp4go/omp4go/internal/minipy"

// renameInStmts rewrites Name nodes (and the names of nonlocal/global
// declarations) per the renames map, in place, and reports whether it
// renamed any. The parameter defaults of a nested FuncDef/Lambda take
// every rename, since they evaluate in the enclosing scope; in its body
// it leaves alone the names that function's parameters rebind
// (shadowing); its decorators are not rewritten. A nested function or
// lambda whose body it renames loses its scope record: the function the
// statements end up in is resolved afterwards, and resolves it again.
func renameInStmts(body []minipy.Stmt, renames map[string]string) bool {
	changed := false
	for _, s := range body {
		changed = renameIn(s, renames) || changed
	}
	return changed
}

func renameIn(root minipy.Node, renames map[string]string) (changed bool) {
	renameIDs := func(ids []string) {
		for i, id := range ids {
			if nn, ok := renames[id]; ok {
				ids[i], changed = nn, true
			}
		}
	}
	renameDefaults := func(params []minipy.Param) {
		for _, p := range params {
			if p.Default != nil {
				changed = renameIn(p.Default, renames) || changed
			}
		}
	}
	minipy.Inspect(root, func(n minipy.Node) bool {
		switch t := n.(type) {
		case *minipy.Name:
			if nn, ok := renames[t.ID]; ok {
				t.ID, changed = nn, true
			}
		case *minipy.Nonlocal:
			renameIDs(t.Names)
		case *minipy.Global:
			renameIDs(t.Names)
		case *minipy.AnnAssign:
			// The annotation names a type, not a variable.
			changed = renameIn(t.Target, renames) || changed
			changed = renameIn(t.Value, renames) || changed
			return false
		case *minipy.FuncDef:
			renameDefaults(t.Params)
			if sub := shadowed(renames, t.Params); len(sub) > 0 && renameInStmts(t.Body, sub) {
				t.Scope, changed = nil, true
			}
			return false
		case *minipy.Lambda:
			renameDefaults(t.Params)
			if sub := shadowed(renames, t.Params); len(sub) > 0 && renameIn(t.Body, sub) {
				t.Scope, changed = nil, true
			}
			return false
		}
		return true
	})
	return changed
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
