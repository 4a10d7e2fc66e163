package minipy

// Inspect traverses the tree under node depth-first in source order, in
// the style of go/ast.Inspect: it calls f(node) and, unless f returns
// false, does the same for each child. The expressions and statements
// held by a Param, Keyword, WithItem or ExceptHandler count as children
// of the node holding them; an absent optional part is skipped. Passes
// that look for certain nodes are written on top of it; passes that
// compute something for every kind of node keep their own switch.
func Inspect(node Node, f func(Node) bool) {
	if node == nil || !f(node) {
		return
	}
	switch t := node.(type) {
	case *Module:
		inspectAll(t.Body, f)
	case *FuncDef:
		inspectAll(t.Decorators, f)
		inspectParams(t.Params, f)
		Inspect(t.Returns, f)
		inspectAll(t.Body, f)
	case *Return:
		Inspect(t.Value, f)
	case *If:
		Inspect(t.Cond, f)
		inspectAll(t.Body, f)
		inspectAll(t.Else, f)
	case *While:
		Inspect(t.Cond, f)
		inspectAll(t.Body, f)
	case *For:
		Inspect(t.Target, f)
		Inspect(t.Iter, f)
		inspectAll(t.Body, f)
	case *Assign:
		inspectAll(t.Targets, f)
		Inspect(t.Value, f)
	case *AugAssign:
		Inspect(t.Target, f)
		Inspect(t.Value, f)
	case *AnnAssign:
		Inspect(t.Target, f)
		Inspect(t.Annotation, f)
		Inspect(t.Value, f)
	case *ExprStmt:
		Inspect(t.X, f)
	case *With:
		for _, it := range t.Items {
			Inspect(it.Context, f)
			Inspect(it.Vars, f)
		}
		inspectAll(t.Body, f)
	case *Try:
		inspectAll(t.Body, f)
		for _, h := range t.Handlers {
			Inspect(h.Type, f)
			inspectAll(h.Body, f)
		}
		inspectAll(t.Final, f)
	case *Raise:
		Inspect(t.Exc, f)
	case *Assert:
		Inspect(t.Test, f)
		Inspect(t.Msg, f)
	case *Del:
		inspectAll(t.Targets, f)
	case *BinOp:
		Inspect(t.L, f)
		Inspect(t.R, f)
	case *BoolOp:
		inspectAll(t.Values, f)
	case *UnaryOp:
		Inspect(t.X, f)
	case *Compare:
		Inspect(t.L, f)
		inspectAll(t.Rights, f)
	case *Call:
		Inspect(t.Fn, f)
		inspectAll(t.Args, f)
		for _, kw := range t.Keywords {
			Inspect(kw.Value, f)
		}
	case *Attribute:
		Inspect(t.X, f)
	case *Index:
		Inspect(t.X, f)
		Inspect(t.I, f)
	case *SliceExpr:
		Inspect(t.X, f)
		Inspect(t.Lo, f)
		Inspect(t.Hi, f)
		Inspect(t.Step, f)
	case *ListLit:
		inspectAll(t.Elts, f)
	case *TupleLit:
		inspectAll(t.Elts, f)
	case *SetLit:
		inspectAll(t.Elts, f)
	case *DictLit:
		for i := range t.Keys {
			Inspect(t.Keys[i], f)
			Inspect(t.Vals[i], f)
		}
	case *IfExp:
		Inspect(t.Then, f)
		Inspect(t.Cond, f)
		Inspect(t.Else, f)
	case *Lambda:
		inspectParams(t.Params, f)
		Inspect(t.Body, f)
	}
}

func inspectAll[N Node](ns []N, f func(Node) bool) {
	for _, n := range ns {
		Inspect(n, f)
	}
}

func inspectParams(ps []Param, f func(Node) bool) {
	for _, p := range ps {
		Inspect(p.Annotation, f)
		Inspect(p.Default, f)
	}
}

// Names adds to into the identifier of every Name under node (reads,
// assignment targets, annotations, defaults), nested functions and
// lambdas included.
func Names(node Node, into map[string]bool) {
	Inspect(node, func(n Node) bool {
		if t, ok := n.(*Name); ok {
			into[t.ID] = true
		}
		return true
	})
}
