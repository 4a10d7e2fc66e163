package minipy

import (
	"fmt"
	"strconv"
	"strings"
)

// Unparse renders an AST back to MiniPy source. It is used by the
// @omp dump option to show transformed code and by round-trip tests
// (parse(unparse(ast)) must equal ast structurally).
func Unparse(n Node) string {
	var u unparser
	switch t := n.(type) {
	case *Module:
		u.stmts(t.Body)
	case Stmt:
		u.stmt(t)
	case Expr:
		u.expr(t, 0)
	}
	return u.b.String()
}

type unparser struct {
	b      strings.Builder
	indent int
}

func (u *unparser) line(format string, args ...any) {
	u.b.WriteString(strings.Repeat("    ", u.indent))
	fmt.Fprintf(&u.b, format, args...)
	u.b.WriteByte('\n')
}

func (u *unparser) stmts(body []Stmt) {
	for _, s := range body {
		u.stmt(s)
	}
}

func (u *unparser) block(body []Stmt) {
	u.indent++
	if len(body) == 0 {
		u.line("pass")
	} else {
		u.stmts(body)
	}
	u.indent--
}

func (u *unparser) stmt(s Stmt) {
	switch t := s.(type) {
	case *FuncDef:
		for _, d := range t.Decorators {
			u.line("@%s", u.exprStr(d))
		}
		var params []string
		for _, p := range t.Params {
			ps := p.Name
			if p.Annotation != nil {
				ps += ": " + u.exprStr(p.Annotation)
			}
			if p.Default != nil {
				ps += " = " + u.exprStr(p.Default)
			}
			params = append(params, ps)
		}
		ret := ""
		if t.Returns != nil {
			ret = " -> " + u.exprStr(t.Returns)
		}
		u.line("def %s(%s)%s:", t.Name, strings.Join(params, ", "), ret)
		u.block(t.Body)
	case *Return:
		if t.Value == nil {
			u.line("return")
		} else {
			u.line("return %s", u.exprStr(t.Value))
		}
	case *If:
		u.unparseIf(t, "if")
	case *While:
		u.line("while %s:", u.exprStr(t.Cond))
		u.block(t.Body)
	case *For:
		u.line("for %s in %s:", u.exprStr(t.Target), u.exprStr(t.Iter))
		u.block(t.Body)
	case *Assign:
		var parts []string
		for _, tgt := range t.Targets {
			parts = append(parts, u.exprStr(tgt))
		}
		u.line("%s = %s", strings.Join(parts, " = "), u.exprStr(t.Value))
	case *AugAssign:
		u.line("%s %s= %s", u.exprStr(t.Target), t.Op, u.exprStr(t.Value))
	case *AnnAssign:
		if t.Value != nil {
			u.line("%s: %s = %s", u.exprStr(t.Target), u.exprStr(t.Annotation), u.exprStr(t.Value))
		} else {
			u.line("%s: %s", u.exprStr(t.Target), u.exprStr(t.Annotation))
		}
	case *ExprStmt:
		u.line("%s", u.exprStr(t.X))
	case *With:
		var items []string
		for _, it := range t.Items {
			s := u.exprStr(it.Context)
			if it.Vars != nil {
				s += " as " + u.exprStr(it.Vars)
			}
			items = append(items, s)
		}
		u.line("with %s:", strings.Join(items, ", "))
		u.block(t.Body)
	case *Global:
		u.line("global %s", strings.Join(t.Names, ", "))
	case *Nonlocal:
		u.line("nonlocal %s", strings.Join(t.Names, ", "))
	case *Import:
		var parts []string
		for _, a := range t.Names {
			if a.AsName != "" {
				parts = append(parts, a.Name+" as "+a.AsName)
			} else {
				parts = append(parts, a.Name)
			}
		}
		u.line("import %s", strings.Join(parts, ", "))
	case *FromImport:
		if t.Star {
			u.line("from %s import *", t.Module)
		} else {
			var parts []string
			for _, a := range t.Names {
				if a.AsName != "" {
					parts = append(parts, a.Name+" as "+a.AsName)
				} else {
					parts = append(parts, a.Name)
				}
			}
			u.line("from %s import %s", t.Module, strings.Join(parts, ", "))
		}
	case *Break:
		u.line("break")
	case *Continue:
		u.line("continue")
	case *Pass:
		u.line("pass")
	case *Try:
		u.line("try:")
		u.block(t.Body)
		for _, h := range t.Handlers {
			switch {
			case h.Type == nil:
				u.line("except:")
			case h.Name != "":
				u.line("except %s as %s:", u.exprStr(h.Type), h.Name)
			default:
				u.line("except %s:", u.exprStr(h.Type))
			}
			u.block(h.Body)
		}
		if t.Final != nil {
			u.line("finally:")
			u.block(t.Final)
		}
	case *Raise:
		if t.Exc == nil {
			u.line("raise")
		} else {
			u.line("raise %s", u.exprStr(t.Exc))
		}
	case *Assert:
		if t.Msg != nil {
			u.line("assert %s, %s", u.exprStr(t.Test), u.exprStr(t.Msg))
		} else {
			u.line("assert %s", u.exprStr(t.Test))
		}
	case *Del:
		var parts []string
		for _, tgt := range t.Targets {
			parts = append(parts, u.exprStr(tgt))
		}
		u.line("del %s", strings.Join(parts, ", "))
	default:
		u.line("# <unknown statement %T>", s)
	}
}

func (u *unparser) unparseIf(t *If, kw string) {
	u.line("%s %s:", kw, u.exprStr(t.Cond))
	u.block(t.Body)
	if len(t.Else) == 0 {
		return
	}
	if inner, ok := t.Else[0].(*If); ok && len(t.Else) == 1 {
		u.unparseIf(inner, "elif")
		return
	}
	u.line("else:")
	u.block(t.Else)
}

func (u *unparser) exprStr(e Expr) string {
	var sub unparser
	sub.expr(e, 0)
	return sub.b.String()
}

// binPrec is the operator precedence of the grammar, loosest first:
// the unparser parenthesizes by it, and the parser climbs levels
// binaryPrecMin to binaryPrecMax with it (parseBinary). ** (right
// associative, binding tighter than a unary operator on its left),
// unary operators and comparisons have parse functions of their own.
var binPrec = map[string]int{
	"or": 1, "and": 2,
	"==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
	"in": 4, "not in": 4, "is": 4, "is not": 4,
	"|": 5, "^": 6, "&": 7, "<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "//": 10, "%": 10,
	"**": 12,
}

const binaryPrecMin, binaryPrecMax = 5, 10

func (u *unparser) expr(e Expr, prec int) {
	switch t := e.(type) {
	case *Name:
		u.b.WriteString(t.ID)
	case *IntLit:
		u.b.WriteString(strconv.FormatInt(t.V, 10))
	case *FloatLit:
		s := strconv.FormatFloat(t.V, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		u.b.WriteString(s)
	case *StrLit:
		u.b.WriteString(quotePy(t.V))
	case *BoolLit:
		if t.V {
			u.b.WriteString("True")
		} else {
			u.b.WriteString("False")
		}
	case *NoneLit:
		u.b.WriteString("None")
	case *BinOp:
		p := binPrec[t.Op]
		open := prec > p
		if open {
			u.b.WriteByte('(')
		}
		lp := p
		if t.Op == "**" { // right associative: (a ** b) ** c keeps its parentheses
			lp = p + 1
		}
		u.expr(t.L, lp)
		u.b.WriteString(" " + t.Op + " ")
		u.expr(t.R, p+1)
		if open {
			u.b.WriteByte(')')
		}
	case *BoolOp:
		p := binPrec[t.Op]
		open := prec > p
		if open {
			u.b.WriteByte('(')
		}
		for i, v := range t.Values {
			if i > 0 {
				u.b.WriteString(" " + t.Op + " ")
			}
			u.expr(v, p+1)
		}
		if open {
			u.b.WriteByte(')')
		}
	case *UnaryOp:
		open := prec > 11
		if t.Op == "not" { // binds looser than comparisons: a + (not b)
			open = prec > 3
		}
		if open {
			u.b.WriteByte('(')
		}
		if t.Op == "not" {
			u.b.WriteString("not ")
			u.expr(t.X, 3)
		} else {
			u.b.WriteString(t.Op)
			u.expr(t.X, 11)
		}
		if open {
			u.b.WriteByte(')')
		}
	case *Compare:
		open := prec > 4
		if open {
			u.b.WriteByte('(')
		}
		u.expr(t.L, 5)
		for i, op := range t.Ops {
			u.b.WriteString(" " + op + " ")
			u.expr(t.Rights[i], 5)
		}
		if open {
			u.b.WriteByte(')')
		}
	case *Call:
		u.expr(t.Fn, 13)
		u.b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				u.b.WriteString(", ")
			}
			u.expr(a, 0)
		}
		for i, kw := range t.Keywords {
			if i > 0 || len(t.Args) > 0 {
				u.b.WriteString(", ")
			}
			u.b.WriteString(kw.Name + "=")
			u.expr(kw.Value, 0)
		}
		u.b.WriteByte(')')
	case *Attribute:
		u.expr(t.X, 13)
		u.b.WriteString("." + t.Name)
	case *Index:
		u.expr(t.X, 13)
		u.b.WriteByte('[')
		u.expr(t.I, 0)
		u.b.WriteByte(']')
	case *SliceExpr:
		u.expr(t.X, 13)
		u.b.WriteByte('[')
		if t.Lo != nil {
			u.expr(t.Lo, 0)
		}
		u.b.WriteByte(':')
		if t.Hi != nil {
			u.expr(t.Hi, 0)
		}
		if t.Step != nil {
			u.b.WriteByte(':')
			u.expr(t.Step, 0)
		}
		u.b.WriteByte(']')
	case *ListLit:
		u.b.WriteByte('[')
		for i, el := range t.Elts {
			if i > 0 {
				u.b.WriteString(", ")
			}
			u.expr(el, 0)
		}
		u.b.WriteByte(']')
	case *TupleLit:
		u.b.WriteByte('(')
		for i, el := range t.Elts {
			if i > 0 {
				u.b.WriteString(", ")
			}
			u.expr(el, 0)
		}
		if len(t.Elts) == 1 {
			u.b.WriteByte(',')
		}
		u.b.WriteByte(')')
	case *DictLit:
		u.b.WriteByte('{')
		for i := range t.Keys {
			if i > 0 {
				u.b.WriteString(", ")
			}
			u.expr(t.Keys[i], 0)
			u.b.WriteString(": ")
			u.expr(t.Vals[i], 0)
		}
		u.b.WriteByte('}')
	case *SetLit:
		u.b.WriteByte('{')
		for i, el := range t.Elts {
			if i > 0 {
				u.b.WriteString(", ")
			}
			u.expr(el, 0)
		}
		u.b.WriteByte('}')
	case *IfExp:
		open := prec > 0
		if open {
			u.b.WriteByte('(')
		}
		u.expr(t.Then, 1)
		u.b.WriteString(" if ")
		u.expr(t.Cond, 1)
		u.b.WriteString(" else ")
		u.expr(t.Else, 0)
		if open {
			u.b.WriteByte(')')
		}
	case *Lambda:
		open := prec > 0
		if open {
			u.b.WriteByte('(')
		}
		u.b.WriteString("lambda")
		for i, p := range t.Params {
			if i == 0 {
				u.b.WriteByte(' ')
			} else {
				u.b.WriteString(", ")
			}
			u.b.WriteString(p.Name)
			if p.Default != nil {
				u.b.WriteString("=")
				u.expr(p.Default, 0)
			}
		}
		u.b.WriteString(": ")
		u.expr(t.Body, 0)
		if open {
			u.b.WriteByte(')')
		}
	default:
		fmt.Fprintf(&u.b, "<unknown expr %T>", e)
	}
}

func quotePy(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
