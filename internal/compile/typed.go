package compile

import "github.com/omp4go/omp4go/internal/minipy"

// valType is the small type lattice of the CompiledDT specializer:
// unknown < int, float < boxed. join(int, float) = float (numeric
// promotion); anything joined with boxed stays boxed.
type valType int

const (
	tUnknown valType = iota
	tInt
	tFloat
	tBoxed
)

func joinTypes(a, b valType) valType {
	if a == b {
		return a
	}
	if a == tUnknown {
		return b
	}
	if b == tUnknown {
		return a
	}
	if (a == tInt && b == tFloat) || (a == tFloat && b == tInt) {
		return tFloat
	}
	return tBoxed
}

// inferTypes runs a fixed-point dataflow over one function body:
// int/float annotations seed variable types, range loop variables are
// ints, and every assignment joins the assigned expression's static
// type into the target. Variables that end boxed (or conflicted) stay
// on the boxed path.
//
// One statement is trusted beyond what the types prove: the declaration
// "x: int = e" / "x: float = e" whose initializer has no static type
// only because it reads list elements or names of an enclosing scope
// (numericSource). Like a Cython cdef, x keeps its declared type and
// the store coerces the value or raises TypeError. Any other untyped
// value — a call result, None, a generic for target, a plain assignment
// — still boxes the variable. isLocal tells the function's own names
// from those of enclosing scopes.
func inferTypes(params []minipy.Param, body []minipy.Stmt, isLocal func(string) bool) map[string]valType {
	types := make(map[string]valType)
	// annotate seeds name from its annotation and reports whether that
	// declared it int or float.
	annotate := func(name string, ann minipy.Expr) bool {
		if n, ok := ann.(*minipy.Name); ok {
			switch n.ID {
			case "int":
				types[name] = joinTypes(types[name], tInt)
				return true
			case "float":
				types[name] = joinTypes(types[name], tFloat)
				return true
			default:
				types[name] = tBoxed
			}
		}
		return false
	}
	for _, p := range params {
		if p.Annotation != nil {
			annotate(p.Name, p.Annotation)
		}
	}

	join := func(name string, t valType) {
		types[name] = joinTypes(types[name], t)
	}

	var scanStmts func(body []minipy.Stmt)
	scanStmts = func(body []minipy.Stmt) {
		for _, s := range body {
			switch t := s.(type) {
			case *minipy.AnnAssign:
				if n, ok := t.Target.(*minipy.Name); ok {
					numeric := annotate(n.ID, t.Annotation)
					if t.Value == nil {
						continue
					}
					vt := exprType(t.Value, types)
					if vt == tBoxed && numeric && numericSource(t.Value, types, isLocal) {
						continue // the declaration is trusted
					}
					join(n.ID, vt)
				}
			case *minipy.Assign:
				vt := exprType(t.Value, types)
				for _, tgt := range t.Targets {
					if n, ok := tgt.(*minipy.Name); ok {
						join(n.ID, vt)
					}
				}
			case *minipy.AugAssign:
				if n, ok := t.Target.(*minipy.Name); ok {
					cur := types[n.ID]
					res := binOpType(t.Op, cur, exprType(t.Value, types))
					join(n.ID, res)
				}
			case *minipy.For:
				if n, ok := t.Target.(*minipy.Name); ok {
					if isRangeCall(t.Iter) {
						join(n.ID, tInt)
					} else {
						join(n.ID, tBoxed)
					}
				} else {
					// Tuple targets stay boxed.
					markTargetsBoxed(t.Target, types)
				}
				scanStmts(t.Body)
			case *minipy.If:
				scanStmts(t.Body)
				scanStmts(t.Else)
			case *minipy.While:
				scanStmts(t.Body)
			case *minipy.With:
				scanStmts(t.Body)
			case *minipy.Try:
				scanStmts(t.Body)
				for _, h := range t.Handlers {
					if h.Name != "" {
						types[h.Name] = tBoxed
					}
					scanStmts(h.Body)
				}
				scanStmts(t.Final)
			case *minipy.FuncDef:
				types[t.Name] = tBoxed
				// Nested bodies are separate scopes.
			case *minipy.Del:
				for _, tgt := range t.Targets {
					markTargetsBoxed(tgt, types)
				}
			}
		}
	}
	// Iterate to a fixed point; the lattice has height 3, so a few
	// passes suffice.
	for pass := 0; pass < 4; pass++ {
		before := snapshot(types)
		scanStmts(body)
		if equalTypes(before, types) {
			break
		}
	}
	return types
}

// numericSource reports whether e, which has no static type, is built
// only from what a well-typed numeric program makes numbers of: list
// elements, names of enclosing scopes, typed locals and literals,
// combined by arithmetic. A call, None or a boxed local is not.
func numericSource(e minipy.Expr, types map[string]valType, isLocal func(string) bool) bool {
	switch t := e.(type) {
	case *minipy.IntLit, *minipy.FloatLit:
		return true
	case *minipy.Name:
		return !isLocal(t.ID) || types[t.ID] == tInt || types[t.ID] == tFloat
	case *minipy.Index:
		_, ok := t.X.(*minipy.Name)
		return ok
	case *minipy.UnaryOp:
		return t.Op != "not" && numericSource(t.X, types, isLocal)
	case *minipy.BinOp:
		return numericSource(t.L, types, isLocal) && numericSource(t.R, types, isLocal)
	}
	return false
}

func markTargetsBoxed(e minipy.Expr, types map[string]valType) {
	switch t := e.(type) {
	case *minipy.Name:
		types[t.ID] = tBoxed
	case *minipy.TupleLit:
		for _, el := range t.Elts {
			markTargetsBoxed(el, types)
		}
	case *minipy.ListLit:
		for _, el := range t.Elts {
			markTargetsBoxed(el, types)
		}
	}
}

func snapshot(m map[string]valType) map[string]valType {
	out := make(map[string]valType, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func equalTypes(a, b map[string]valType) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func isRangeCall(e minipy.Expr) bool {
	call, ok := e.(*minipy.Call)
	if !ok {
		return false
	}
	n, ok := call.Fn.(*minipy.Name)
	return ok && n.ID == "range"
}

// mathFloatFns are math-module functions known to return float.
var mathFloatFns = map[string]bool{
	"sqrt": true, "sin": true, "cos": true, "tan": true, "exp": true,
	"log": true, "log2": true, "log10": true, "fabs": true, "pow": true,
	"atan": true, "atan2": true, "asin": true, "acos": true, "fmod": true,
}

// exprType computes the static type of an expression under the
// current variable typing.
func exprType(e minipy.Expr, types map[string]valType) valType {
	switch t := e.(type) {
	case *minipy.IntLit:
		return tInt
	case *minipy.FloatLit:
		return tFloat
	case *minipy.Name:
		if vt, ok := types[t.ID]; ok {
			return vt
		}
		return tBoxed
	case *minipy.BinOp:
		return binOpType(t.Op, exprType(t.L, types), exprType(t.R, types))
	case *minipy.UnaryOp:
		switch t.Op {
		case "-", "+":
			xt := exprType(t.X, types)
			if xt == tInt || xt == tFloat {
				return xt
			}
		case "~":
			if exprType(t.X, types) == tInt {
				return tInt
			}
		}
		return tBoxed
	case *minipy.IfExp:
		return joinTypes(exprType(t.Then, types), exprType(t.Else, types))
	case *minipy.Call:
		switch fn := t.Fn.(type) {
		case *minipy.Name:
			switch fn.ID {
			case "int", "len", "ord":
				return tInt
			case "float":
				return tFloat
			case "abs":
				if len(t.Args) == 1 {
					at := exprType(t.Args[0], types)
					if at == tInt || at == tFloat {
						return at
					}
				}
			case "min", "max":
				if len(t.Args) >= 2 {
					out := tUnknown
					for _, a := range t.Args {
						out = joinTypes(out, exprType(a, types))
					}
					if out == tInt || out == tFloat {
						return out
					}
				}
			}
		case *minipy.Attribute:
			if base, ok := fn.X.(*minipy.Name); ok && base.ID == "math" && mathFloatFns[fn.Name] {
				return tFloat
			}
		}
		return tBoxed
	}
	return tBoxed
}

// binOpType gives the result type of an arithmetic operator. Two
// Python facts make the float rules strong: true division always
// yields a float (or raises TypeError), and arithmetic with a float
// operand yields a float (or raises TypeError) — so a float operand
// pins the result type even when the other side is unknown. This is
// what keeps `s += a[i] * x[j]` on the unboxed path when s is
// annotated float but list elements are statically untyped.
func binOpType(op string, l, r valType) valType {
	switch op {
	case "/":
		return tFloat // numeric-or-TypeError in Python
	case "+", "-", "*", "//", "%", "**":
		if l == tFloat || r == tFloat {
			return tFloat
		}
		if l == tInt && r == tInt {
			if op == "**" {
				// int ** int may produce a float for negative
				// exponents; stay boxed.
				return tBoxed
			}
			return tInt
		}
		return tBoxed
	case "&", "|", "^", "<<", ">>":
		if l == tInt && r == tInt {
			return tInt
		}
		return tBoxed
	}
	return tBoxed
}
