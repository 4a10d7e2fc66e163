package minipy

import (
	"fmt"
	"strconv"
)

// Parse parses MiniPy source into a Module, every def and lambda of it
// carrying its scope record (Resolve). file is used in error messages
// only.
func Parse(src, file string) (*Module, error) {
	toks, err := Lex(src)
	if err != nil {
		if e, ok := err.(*Error); ok {
			e.File = file
		}
		return nil, err
	}
	p := &parser{toks: toks, file: file}
	mod, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	resolveIn(mod, p.lambdas)
	return mod, nil
}

// ParseExprString parses a single expression (used for directive
// clause expressions like if(n > 30)).
func ParseExprString(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseTest()
	if err != nil {
		return nil, err
	}
	// Allow trailing NEWLINE/EOF only.
	for p.cur().Kind == NEWLINE {
		p.next()
	}
	if p.cur().Kind != EOF {
		return nil, p.errf("unexpected %s after expression", p.cur())
	}
	resolveIn(e, p.lambdas)
	return e, nil
}

type parser struct {
	toks    []Token
	i       int
	file    string
	lambdas bool // a lambda was parsed
}

func (p *parser) cur() *Token  { return &p.toks[p.i] }
func (p *parser) peek() *Token { return &p.toks[p.i+1] }
func (p *parser) next() *Token { t := &p.toks[p.i]; p.i++; return t }

func (p *parser) at(kind TokKind, text string) bool {
	t := &p.toks[p.i]
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind TokKind, text string) (*Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = kind.String()
	}
	return nil, p.errf("expected %s, found %s", want, p.cur())
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...), File: p.file}
}

func (p *parser) parseModule() (*Module, error) {
	mod := &Module{}
	for {
		switch p.cur().Kind {
		case EOF:
			return mod, nil
		case NEWLINE:
			p.next()
		default:
			var err error
			if mod.Body, err = p.parseStatement(mod.Body); err != nil {
				return nil, err
			}
		}
	}
}

// parseStatement parses one logical statement, which may expand to
// multiple small statements separated by semicolons, and appends it to
// into.
func (p *parser) parseStatement(into []Stmt) ([]Stmt, error) {
	var s Stmt
	var err error
	switch t := p.cur(); {
	case t.Kind == OP && t.Text == "@":
		return p.parseDecorated(into)
	case t.Kind != KEYWORD:
		return p.parseSimpleLine(into)
	case t.Text == "def":
		s, err = p.parseFuncDef(nil)
	case t.Text == "if":
		s, err = p.parseIf()
	case t.Text == "while":
		s, err = p.parseWhile()
	case t.Text == "for":
		s, err = p.parseFor()
	case t.Text == "with":
		s, err = p.parseWith()
	case t.Text == "try":
		s, err = p.parseTry()
	default:
		return p.parseSimpleLine(into)
	}
	if err != nil {
		return nil, err
	}
	return append(into, s), nil
}

func (p *parser) parseDecorated(into []Stmt) ([]Stmt, error) {
	var decorators []Expr
	for p.accept(OP, "@") {
		d, err := p.parseTest()
		if err != nil {
			return nil, err
		}
		decorators = append(decorators, d)
		if _, err := p.expect(NEWLINE, ""); err != nil {
			return nil, err
		}
		for p.accept(NEWLINE, "") {
		}
	}
	if !p.at(KEYWORD, "def") {
		return nil, p.errf("decorators must be followed by a function definition")
	}
	s, err := p.parseFuncDef(decorators)
	if err != nil {
		return nil, err
	}
	return append(into, s), nil
}

func (p *parser) parseFuncDef(decorators []Expr) (Stmt, error) {
	pos := p.cur().Pos
	p.next() // def
	nameTok, err := p.expect(NAME, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(OP, "("); err != nil {
		return nil, err
	}
	params, err := p.parseParams(")")
	if err != nil {
		return nil, err
	}
	fd := &FuncDef{base: base{pos}, Name: nameTok.Text, Params: params, Decorators: decorators}
	if p.accept(OP, "->") {
		ret, err := p.parseTest()
		if err != nil {
			return nil, err
		}
		fd.Returns = ret
	}
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *parser) parseParams(closer string) ([]Param, error) {
	var params []Param
	for !p.at(OP, closer) {
		nameTok, err := p.expect(NAME, "")
		if err != nil {
			return nil, err
		}
		param := Param{Name: nameTok.Text}
		if p.accept(OP, ":") {
			ann, err := p.parseTest()
			if err != nil {
				return nil, err
			}
			param.Annotation = ann
		}
		if p.accept(OP, "=") {
			def, err := p.parseTest()
			if err != nil {
				return nil, err
			}
			param.Default = def
		}
		params = append(params, param)
		if !p.accept(OP, ",") {
			break
		}
	}
	if _, err := p.expect(OP, closer); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.next().Pos // if / elif
	cond, err := p.parseTest()
	if err != nil {
		return nil, err
	}
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	node := &If{base: base{pos}, Cond: cond, Body: body}
	switch {
	case p.at(KEYWORD, "elif"):
		elifStmt, err := p.parseIf()
		if err != nil {
			return nil, err
		}
		node.Else = []Stmt{elifStmt}
	case p.at(KEYWORD, "else"):
		p.next()
		els, err := p.parseSuite()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	pos := p.next().Pos
	cond, err := p.parseTest()
	if err != nil {
		return nil, err
	}
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	return &While{base: base{pos}, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.next().Pos
	target, err := p.parseTargetList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KEYWORD, "in"); err != nil {
		return nil, err
	}
	iter, err := p.parseTestList()
	if err != nil {
		return nil, err
	}
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	return &For{base: base{pos}, Target: target, Iter: iter, Body: body}, nil
}

// parseTargetList parses "a" or "a, b" assignment/loop targets.
func (p *parser) parseTargetList() (Expr, error) {
	first, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if !p.at(OP, ",") {
		return first, nil
	}
	elts := []Expr{first}
	for p.accept(OP, ",") {
		if p.at(KEYWORD, "in") || p.at(OP, "=") {
			break
		}
		e, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		elts = append(elts, e)
	}
	return &TupleLit{base: base{first.NodePos()}, Elts: elts}, nil
}

func (p *parser) parseWith() (Stmt, error) {
	pos := p.next().Pos
	var items []WithItem
	for {
		ctxExpr, err := p.parseTest()
		if err != nil {
			return nil, err
		}
		item := WithItem{Context: ctxExpr}
		if p.accept(KEYWORD, "as") {
			v, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			item.Vars = v
		}
		items = append(items, item)
		if !p.accept(OP, ",") {
			break
		}
	}
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	return &With{base: base{pos}, Items: items, Body: body}, nil
}

func (p *parser) parseTry() (Stmt, error) {
	pos := p.next().Pos
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	node := &Try{base: base{pos}, Body: body}
	for p.at(KEYWORD, "except") {
		p.next()
		var h ExceptHandler
		if !p.at(OP, ":") {
			typ, err := p.parseTest()
			if err != nil {
				return nil, err
			}
			h.Type = typ
			if p.accept(KEYWORD, "as") {
				nameTok, err := p.expect(NAME, "")
				if err != nil {
					return nil, err
				}
				h.Name = nameTok.Text
			}
		}
		hbody, err := p.parseSuite()
		if err != nil {
			return nil, err
		}
		h.Body = hbody
		node.Handlers = append(node.Handlers, h)
	}
	if p.accept(KEYWORD, "finally") {
		fbody, err := p.parseSuite()
		if err != nil {
			return nil, err
		}
		node.Final = fbody
	}
	if len(node.Handlers) == 0 && node.Final == nil {
		return nil, p.errf("try statement needs except or finally")
	}
	return node, nil
}

// parseSuite parses ":" followed by an inline simple statement or an
// indented block.
func (p *parser) parseSuite() ([]Stmt, error) {
	if _, err := p.expect(OP, ":"); err != nil {
		return nil, err
	}
	if !p.at(NEWLINE, "") {
		return p.parseSimpleLine(nil)
	}
	p.next() // NEWLINE
	if _, err := p.expect(INDENT, ""); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.at(DEDENT, "") {
		if p.accept(NEWLINE, "") {
			continue
		}
		var err error
		if body, err = p.parseStatement(body); err != nil {
			return nil, err
		}
	}
	p.next() // DEDENT
	if len(body) == 0 {
		return nil, p.errf("empty block")
	}
	return body, nil
}

// parseSimpleLine parses small statements separated by ';' up to the
// newline and appends them to out.
func (p *parser) parseSimpleLine(out []Stmt) ([]Stmt, error) {
	for {
		s, err := p.parseSmallStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.accept(OP, ";") {
			break
		}
		if p.at(NEWLINE, "") || p.at(EOF, "") {
			break
		}
	}
	if !p.accept(NEWLINE, "") && !p.at(EOF, "") && !p.at(DEDENT, "") {
		return nil, p.errf("expected newline, found %s", p.cur())
	}
	return out, nil
}

func (p *parser) parseSmallStmt() (Stmt, error) {
	t := p.cur()
	if t.Kind == KEYWORD {
		switch t.Text {
		case "return":
			p.next()
			node := &Return{base: base{t.Pos}}
			if !p.at(NEWLINE, "") && !p.at(OP, ";") && !p.at(EOF, "") {
				v, err := p.parseTestList()
				if err != nil {
					return nil, err
				}
				node.Value = v
			}
			return node, nil
		case "pass":
			p.next()
			return &Pass{base{t.Pos}}, nil
		case "break":
			p.next()
			return &Break{base{t.Pos}}, nil
		case "continue":
			p.next()
			return &Continue{base{t.Pos}}, nil
		case "global", "nonlocal":
			p.next()
			var names []string
			for {
				nameTok, err := p.expect(NAME, "")
				if err != nil {
					return nil, err
				}
				names = append(names, nameTok.Text)
				if !p.accept(OP, ",") {
					break
				}
			}
			if t.Text == "global" {
				return &Global{base{t.Pos}, names}, nil
			}
			return &Nonlocal{base{t.Pos}, names}, nil
		case "import":
			p.next()
			node := &Import{base: base{t.Pos}}
			for {
				name, err := p.parseDottedName()
				if err != nil {
					return nil, err
				}
				alias := ImportAlias{Name: name}
				if p.accept(KEYWORD, "as") {
					asTok, err := p.expect(NAME, "")
					if err != nil {
						return nil, err
					}
					alias.AsName = asTok.Text
				}
				node.Names = append(node.Names, alias)
				if !p.accept(OP, ",") {
					break
				}
			}
			return node, nil
		case "from":
			p.next()
			mod, err := p.parseDottedName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(KEYWORD, "import"); err != nil {
				return nil, err
			}
			node := &FromImport{base: base{t.Pos}, Module: mod}
			if p.accept(OP, "*") {
				node.Star = true
				return node, nil
			}
			for {
				nameTok, err := p.expect(NAME, "")
				if err != nil {
					return nil, err
				}
				alias := ImportAlias{Name: nameTok.Text}
				if p.accept(KEYWORD, "as") {
					asTok, err := p.expect(NAME, "")
					if err != nil {
						return nil, err
					}
					alias.AsName = asTok.Text
				}
				node.Names = append(node.Names, alias)
				if !p.accept(OP, ",") {
					break
				}
			}
			return node, nil
		case "raise":
			p.next()
			node := &Raise{base: base{t.Pos}}
			if !p.at(NEWLINE, "") && !p.at(OP, ";") && !p.at(EOF, "") {
				e, err := p.parseTest()
				if err != nil {
					return nil, err
				}
				node.Exc = e
			}
			return node, nil
		case "assert":
			p.next()
			test, err := p.parseTest()
			if err != nil {
				return nil, err
			}
			node := &Assert{base: base{t.Pos}, Test: test}
			if p.accept(OP, ",") {
				msg, err := p.parseTest()
				if err != nil {
					return nil, err
				}
				node.Msg = msg
			}
			return node, nil
		case "del":
			p.next()
			var targets []Expr
			for {
				e, err := p.parsePostfix()
				if err != nil {
					return nil, err
				}
				targets = append(targets, e)
				if !p.accept(OP, ",") {
					break
				}
			}
			return &Del{base{t.Pos}, targets}, nil
		}
	}
	return p.parseExprStmt()
}

func (p *parser) parseDottedName() (string, error) {
	nameTok, err := p.expect(NAME, "")
	if err != nil {
		return "", err
	}
	name := nameTok.Text
	for p.accept(OP, ".") {
		part, err := p.expect(NAME, "")
		if err != nil {
			return "", err
		}
		name += "." + part.Text
	}
	return name, nil
}

var augOps = map[string]string{
	"+=": "+", "-=": "-", "*=": "*", "/=": "/", "//=": "//",
	"%=": "%", "**=": "**", "&=": "&", "|=": "|", "^=": "^",
	"<<=": "<<", ">>=": ">>",
}

func (p *parser) parseExprStmt() (Stmt, error) {
	pos := p.cur().Pos
	first, err := p.parseTestList()
	if err != nil {
		return nil, err
	}
	// Annotated assignment.
	if p.at(OP, ":") {
		if _, ok := first.(*Name); ok {
			p.next()
			ann, err := p.parseTest()
			if err != nil {
				return nil, err
			}
			node := &AnnAssign{base: base{pos}, Target: first, Annotation: ann}
			if p.accept(OP, "=") {
				v, err := p.parseTestList()
				if err != nil {
					return nil, err
				}
				node.Value = v
			}
			return node, nil
		}
	}
	// Augmented assignment.
	if p.cur().Kind == OP {
		if op, ok := augOps[p.cur().Text]; ok {
			if err := checkAssignable(first, p, pos); err != nil {
				return nil, err
			}
			p.next()
			v, err := p.parseTestList()
			if err != nil {
				return nil, err
			}
			return &AugAssign{base: base{pos}, Target: first, Op: op, Value: v}, nil
		}
	}
	// Plain (possibly chained) assignment.
	if p.at(OP, "=") {
		targets := []Expr{first}
		var value Expr
		for p.accept(OP, "=") {
			v, err := p.parseTestList()
			if err != nil {
				return nil, err
			}
			if p.at(OP, "=") {
				targets = append(targets, v)
			} else {
				value = v
			}
		}
		for _, tgt := range targets {
			if err := checkAssignable(tgt, p, pos); err != nil {
				return nil, err
			}
		}
		return &Assign{base: base{pos}, Targets: targets, Value: value}, nil
	}
	return &ExprStmt{base: base{pos}, X: first}, nil
}

func checkAssignable(e Expr, p *parser, pos Position) error {
	switch t := e.(type) {
	case *Name, *Attribute, *Index, *SliceExpr:
		return nil
	case *TupleLit:
		for _, el := range t.Elts {
			if err := checkAssignable(el, p, pos); err != nil {
				return err
			}
		}
		return nil
	case *ListLit:
		for _, el := range t.Elts {
			if err := checkAssignable(el, p, pos); err != nil {
				return err
			}
		}
		return nil
	}
	return &Error{Pos: pos, Msg: "cannot assign to this expression", File: p.file}
}

// parseTestList parses test (',' test)* into a tuple when multiple.
func (p *parser) parseTestList() (Expr, error) {
	first, err := p.parseTest()
	if err != nil {
		return nil, err
	}
	if !p.at(OP, ",") {
		return first, nil
	}
	elts := []Expr{first}
	for p.accept(OP, ",") {
		if p.at(NEWLINE, "") || p.at(OP, "=") || p.at(OP, ")") ||
			p.at(OP, "]") || p.at(OP, "}") || p.at(OP, ":") || p.at(EOF, "") {
			break // trailing comma
		}
		e, err := p.parseTest()
		if err != nil {
			return nil, err
		}
		elts = append(elts, e)
	}
	return &TupleLit{base: base{first.NodePos()}, Elts: elts}, nil
}

// parseTest parses a full expression including conditional
// expressions and lambdas.
func (p *parser) parseTest() (Expr, error) {
	if p.at(KEYWORD, "lambda") {
		pos := p.next().Pos
		var params []Param
		if !p.at(OP, ":") {
			var err error
			params, err = p.parseLambdaParams()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(OP, ":"); err != nil {
			return nil, err
		}
		body, err := p.parseTest()
		if err != nil {
			return nil, err
		}
		p.lambdas = true
		return &Lambda{base: base{pos}, Params: params, Body: body}, nil
	}
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.at(KEYWORD, "if") {
		pos := p.next().Pos
		test, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KEYWORD, "else"); err != nil {
			return nil, err
		}
		els, err := p.parseTest()
		if err != nil {
			return nil, err
		}
		return &IfExp{base: base{pos}, Cond: test, Then: cond, Else: els}, nil
	}
	return cond, nil
}

func (p *parser) parseLambdaParams() ([]Param, error) {
	var params []Param
	for {
		nameTok, err := p.expect(NAME, "")
		if err != nil {
			return nil, err
		}
		param := Param{Name: nameTok.Text}
		if p.accept(OP, "=") {
			def, err := p.parseTest()
			if err != nil {
				return nil, err
			}
			param.Default = def
		}
		params = append(params, param)
		if !p.accept(OP, ",") {
			return params, nil
		}
	}
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if !p.at(KEYWORD, "or") {
		return left, nil
	}
	node := &BoolOp{base: base{left.NodePos()}, Op: "or", Values: []Expr{left}}
	for p.accept(KEYWORD, "or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		node.Values = append(node.Values, r)
	}
	return node, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	if !p.at(KEYWORD, "and") {
		return left, nil
	}
	node := &BoolOp{base: base{left.NodePos()}, Op: "and", Values: []Expr{left}}
	for p.accept(KEYWORD, "and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		node.Values = append(node.Values, r)
	}
	return node, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.at(KEYWORD, "not") {
		pos := p.next().Pos
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{base: base{pos}, Op: "not", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseBinary(binaryPrecMin)
	if err != nil {
		return nil, err
	}
	var ops []string
	var rights []Expr
	for {
		var op string
		switch t := p.cur(); {
		case t.Kind == OP && (t.Text == "==" || t.Text == "!=" || t.Text == "<" ||
			t.Text == "<=" || t.Text == ">" || t.Text == ">="):
			op = p.next().Text
		case t.Kind != KEYWORD:
		case t.Text == "in":
			p.next()
			op = "in"
		case t.Text == "not" && p.peek().Kind == KEYWORD && p.peek().Text == "in":
			p.next()
			p.next()
			op = "not in"
		case t.Text == "is":
			p.next()
			if p.accept(KEYWORD, "not") {
				op = "is not"
			} else {
				op = "is"
			}
		}
		if op == "" {
			if len(ops) == 0 {
				return left, nil
			}
			return &Compare{base: base{left.NodePos()}, L: left, Ops: ops, Rights: rights}, nil
		}
		r, err := p.parseBinary(binaryPrecMin)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		rights = append(rights, r)
	}
}

// parseBinary parses the left-associative binary operators, binPrec
// levels 5 (|) to 10 (* / // %), by precedence climbing: an operator
// binding at least as tightly as minPrec extends left, and its right
// operand takes only operators binding more tightly still.
func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := &p.toks[p.i]
		if t.Kind != OP {
			return left, nil
		}
		prec := binPrec[t.Text]
		if prec < minPrec || prec > binaryPrecMax {
			return left, nil
		}
		p.i++
		r, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinOp{base: base{t.Pos}, Op: t.Text, L: left, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if t := p.cur(); t.Kind == OP && (t.Text == "-" || t.Text == "+" || t.Text == "~") {
		op := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{base: base{op.Pos}, Op: op.Text, X: x}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	left, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if p.at(OP, "**") {
		pos := p.next().Pos
		// ** is right-associative and binds tighter than unary on
		// its right: 2 ** -3 parses.
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinOp{base: base{pos}, Op: "**", L: left, R: r}, nil
	}
	return left, nil
}

// parsePostfix parses an atom followed by call/attribute/index
// trailers.
func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != OP {
			return x, nil
		}
		switch t.Text {
		case "(":
			pos := p.next().Pos
			call := &Call{base: base{pos}, Fn: x}
			for !p.at(OP, ")") {
				// Keyword argument?
				if p.cur().Kind == NAME && p.peek().Kind == OP && p.peek().Text == "=" {
					nameTok := p.next()
					p.next() // =
					v, err := p.parseTest()
					if err != nil {
						return nil, err
					}
					call.Keywords = append(call.Keywords, Keyword{Name: nameTok.Text, Value: v})
				} else {
					if len(call.Keywords) > 0 {
						return nil, p.errf("positional argument after keyword argument")
					}
					a, err := p.parseTest()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
				}
				if !p.accept(OP, ",") {
					break
				}
			}
			if _, err := p.expect(OP, ")"); err != nil {
				return nil, err
			}
			x = call
		case ".":
			pos := p.next().Pos
			nameTok, err := p.expect(NAME, "")
			if err != nil {
				return nil, err
			}
			x = &Attribute{base: base{pos}, X: x, Name: nameTok.Text}
		case "[":
			pos := p.next().Pos
			sub, err := p.parseSubscript(x, pos)
			if err != nil {
				return nil, err
			}
			x = sub
		default:
			return x, nil
		}
	}
}

// parseSubscript parses [i] or [lo:hi:step] after '['.
func (p *parser) parseSubscript(x Expr, pos Position) (Expr, error) {
	var lo, hi, step Expr
	var err error
	isSlice := false
	if !p.at(OP, ":") {
		lo, err = p.parseTest()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(OP, ":") {
		isSlice = true
		if !p.at(OP, ":") && !p.at(OP, "]") {
			hi, err = p.parseTest()
			if err != nil {
				return nil, err
			}
		}
		if p.accept(OP, ":") {
			if !p.at(OP, "]") {
				step, err = p.parseTest()
				if err != nil {
					return nil, err
				}
			}
		}
	}
	if _, err := p.expect(OP, "]"); err != nil {
		return nil, err
	}
	if isSlice {
		return &SliceExpr{base: base{pos}, X: x, Lo: lo, Hi: hi, Step: step}, nil
	}
	return &Index{base: base{pos}, X: x, I: lo}, nil
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case NAME:
		p.next()
		return &Name{base: base{t.Pos}, ID: t.Text}, nil
	case INT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 0, 64)
		if err != nil {
			return nil, p.errf("invalid integer literal %q", t.Text)
		}
		return &IntLit{base: base{t.Pos}, V: v}, nil
	case FLOAT:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("invalid float literal %q", t.Text)
		}
		return &FloatLit{base: base{t.Pos}, V: v}, nil
	case STRING:
		p.next()
		s := t.Text
		// Adjacent string literals concatenate.
		for p.cur().Kind == STRING {
			s += p.next().Text
		}
		return &StrLit{base: base{t.Pos}, V: s}, nil
	case KEYWORD:
		switch t.Text {
		case "True":
			p.next()
			return &BoolLit{base: base{t.Pos}, V: true}, nil
		case "False":
			p.next()
			return &BoolLit{base: base{t.Pos}, V: false}, nil
		case "None":
			p.next()
			return &NoneLit{base{t.Pos}}, nil
		case "lambda":
			return p.parseTest()
		}
	case OP:
		switch t.Text {
		case "(":
			p.next()
			if p.accept(OP, ")") {
				return &TupleLit{base: base{t.Pos}}, nil
			}
			inner, err := p.parseTestList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(OP, ")"); err != nil {
				return nil, err
			}
			return inner, nil
		case "[":
			p.next()
			node := &ListLit{base: base{t.Pos}}
			for !p.at(OP, "]") {
				e, err := p.parseTest()
				if err != nil {
					return nil, err
				}
				node.Elts = append(node.Elts, e)
				if !p.accept(OP, ",") {
					break
				}
			}
			if _, err := p.expect(OP, "]"); err != nil {
				return nil, err
			}
			return node, nil
		case "{":
			p.next()
			if p.accept(OP, "}") {
				return &DictLit{base: base{t.Pos}}, nil
			}
			firstKey, err := p.parseTest()
			if err != nil {
				return nil, err
			}
			if p.at(OP, ":") {
				node := &DictLit{base: base{t.Pos}}
				node.Keys = append(node.Keys, firstKey)
				p.next()
				v, err := p.parseTest()
				if err != nil {
					return nil, err
				}
				node.Vals = append(node.Vals, v)
				for p.accept(OP, ",") {
					if p.at(OP, "}") {
						break
					}
					k, err := p.parseTest()
					if err != nil {
						return nil, err
					}
					if _, err := p.expect(OP, ":"); err != nil {
						return nil, err
					}
					v, err := p.parseTest()
					if err != nil {
						return nil, err
					}
					node.Keys = append(node.Keys, k)
					node.Vals = append(node.Vals, v)
				}
				if _, err := p.expect(OP, "}"); err != nil {
					return nil, err
				}
				return node, nil
			}
			// Set literal.
			node := &SetLit{base: base{t.Pos}, Elts: []Expr{firstKey}}
			for p.accept(OP, ",") {
				if p.at(OP, "}") {
					break
				}
				e, err := p.parseTest()
				if err != nil {
					return nil, err
				}
				node.Elts = append(node.Elts, e)
			}
			if _, err := p.expect(OP, "}"); err != nil {
				return nil, err
			}
			return node, nil
		}
	}
	return nil, p.errf("unexpected %s", t)
}
