package directive

import (
	"strconv"
	"strings"
)

// Parse parses and validates one OpenMP directive string, e.g.
//
//	parallel for reduction(+:pi_value) schedule(dynamic, 300)
//
// Combined directive names may be written with spaces or underscores
// ("parallel for" and "parallel_for" are equivalent), and clauses may
// be separated by whitespace, commas, or semicolons (OpenMP 6.0
// lexical conventions).
func Parse(src string) (*Directive, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{raw: src, toks: toks}
	d, err := p.parseDirective()
	if err != nil {
		return nil, err
	}
	if err := validate(d, src); err != nil {
		return nil, err
	}
	return d, nil
}

type parser struct {
	raw  string
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return errf(p.raw, p.cur().pos, format, args...)
}

// directiveNames lists the canonical names in matching order: names
// of more words first, so the longest name matches.
var directiveNames = []Name{
	NameDeclareReduction,
	NameParallelSections,
	NameParallelFor,
	NameThreadprivate,
	NameParallel,
	NameSections,
	NameSection,
	NameTaskgroup,
	NameTaskloop,
	NameTaskwait,
	NameCritical,
	NameBarrier,
	NameOrdered,
	NameAtomic,
	NameSingle,
	NameMaster,
	NameFlush,
	NameTask,
	NameFor,
}

// maxNameWords is the most words a directive name has.
const maxNameWords = 2

// directiveWords holds the words of each of directiveNames.
var directiveWords = func() [][]string {
	out := make([][]string, len(directiveNames))
	for i, name := range directiveNames {
		out[i] = strings.Fields(string(name))
		if len(out[i]) > maxNameWords {
			panic("directive: name " + string(name) + " has more than maxNameWords words")
		}
	}
	return out
}()

// matchName consumes the directive name from the token stream. The
// leading identifiers are read as lower-case words split at
// underscores ("parallel_for" is "parallel", "for"; an identifier of
// underscores alone is one word), so combined names match regardless
// of spelling.
func (p *parser) matchName() (Name, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected directive name, found %s", p.cur())
	}
	// The first maxNameWords words, and per word the number of tokens
	// read up to and including its own.
	var words [maxNameWords]string
	var consumed [maxNameWords]int
	n := 0
	for j := p.i; j < len(p.toks) && p.toks[j].kind == tokIdent && n < len(words); j++ {
		ident := strings.ToLower(p.toks[j].text)
		split := false
		for rest := ident; rest != "" && n < len(words); {
			var w string
			w, rest, _ = strings.Cut(rest, "_")
			if w != "" {
				words[n], consumed[n] = w, j-p.i+1
				n++
				split = true
			}
		}
		if !split && n < len(words) {
			words[n], consumed[n] = ident, j-p.i+1
			n++
		}
	}
	for i, nw := range directiveWords {
		if len(nw) > n {
			continue
		}
		ok := true
		for k, w := range nw {
			if words[k] != w {
				ok = false
				break
			}
		}
		if ok {
			p.i += consumed[len(nw)-1]
			return directiveNames[i], nil
		}
	}
	return "", p.errf("unknown directive %q", p.cur().text)
}

func (p *parser) parseDirective() (*Directive, error) {
	name, err := p.matchName()
	if err != nil {
		return nil, err
	}
	d := &Directive{Name: name, Raw: p.raw}

	// Directive-specific leading arguments.
	switch name {
	case NameCritical:
		if p.cur().kind == tokLParen {
			expr, ni, err := scanBalancedExpr(p.raw, p.toks, p.i)
			if err != nil {
				return nil, err
			}
			p.i = ni
			d.Clauses = append(d.Clauses, Clause{Kind: ClauseCriticalName, Expr: expr})
		}
	case NameFlush:
		if p.cur().kind == tokLParen {
			vars, err := p.parseParenVarList()
			if err != nil {
				return nil, err
			}
			d.Clauses = append(d.Clauses, Clause{Kind: ClauseFlushList, Vars: vars})
		}
	case NameThreadprivate:
		vars, err := p.parseParenVarList()
		if err != nil {
			return nil, err
		}
		d.Clauses = append(d.Clauses, Clause{Kind: ClauseFlushList, Vars: vars})
	case NameAtomic:
		if p.cur().kind == tokIdent {
			switch op := strings.ToLower(p.cur().text); op {
			case "read", "write", "update", "capture":
				p.next()
				d.Clauses = append(d.Clauses, Clause{Kind: ClauseAtomicOp, Expr: op})
			}
		}
	case NameDeclareReduction:
		dr, err := p.parseDeclareReduction()
		if err != nil {
			return nil, err
		}
		d.DeclaredReduction = dr
		if p.cur().kind != tokEOF {
			return nil, p.errf("unexpected %s after declare reduction", p.cur())
		}
		return d, nil
	}

	// Clause list.
	for {
		switch p.cur().kind {
		case tokEOF:
			return d, nil
		case tokComma, tokSemi:
			p.next() // OpenMP 6.0: commas/semicolons may separate clauses
			continue
		case tokIdent:
			d.Clauses = append(d.Clauses, Clause{})
			if err := p.parseClause(&d.Clauses[len(d.Clauses)-1]); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unexpected %s in directive", p.cur())
		}
	}
}

// parseParenVarList parses "(a, b, c)" into identifiers.
func (p *parser) parseParenVarList() ([]string, error) {
	if p.cur().kind != tokLParen {
		return nil, p.errf("expected '(' to open variable list, found %s", p.cur())
	}
	p.next()
	var vars []string
	for {
		switch p.cur().kind {
		case tokIdent:
			vars = append(vars, p.next().text)
			switch p.cur().kind {
			case tokComma:
				p.next()
			case tokRParen:
				p.next()
				return vars, nil
			default:
				return nil, p.errf("expected ',' or ')' in variable list, found %s", p.cur())
			}
		case tokRParen:
			if len(vars) > 0 {
				return nil, p.errf("trailing ',' in variable list")
			}
			p.next()
			return vars, nil
		default:
			return nil, p.errf("expected variable name, found %s", p.cur())
		}
	}
}

var clauseKeywords = map[string]ClauseKind{
	"if":           ClauseIf,
	"num_threads":  ClauseNumThreads,
	"default":      ClauseDefault,
	"private":      ClausePrivate,
	"firstprivate": ClauseFirstprivate,
	"lastprivate":  ClauseLastprivate,
	"shared":       ClauseShared,
	"copyin":       ClauseCopyin,
	"copyprivate":  ClauseCopyprivate,
	"reduction":    ClauseReduction,
	"schedule":     ClauseSchedule,
	"collapse":     ClauseCollapse,
	"ordered":      ClauseOrdered,
	"nowait":       ClauseNowait,
	"untied":       ClauseUntied,
	"final":        ClauseFinal,
	"mergeable":    ClauseMergeable,
	"depend":       ClauseDepend,
	"grainsize":    ClauseGrainsize,
	"num_tasks":    ClauseNumTasks,
	"nogroup":      ClauseNogroup,
}

// parseClause parses one clause into c.
func (p *parser) parseClause(c *Clause) error {
	kw := strings.ToLower(p.cur().text)
	kind, ok := clauseKeywords[kw]
	if !ok {
		return p.errf("unknown clause %q", p.cur().text)
	}
	p.next()
	c.Kind = kind
	switch kind {
	case ClauseIf, ClauseNumThreads, ClauseFinal:
		expr, ni, err := scanBalancedExpr(p.raw, p.toks, p.i)
		if err != nil {
			return err
		}
		p.i = ni
		// OpenMP 6.0 allows a directive-name modifier: if(task: expr).
		if idx := strings.Index(expr, ":"); kind == ClauseIf && idx > 0 {
			head := strings.TrimSpace(expr[:idx])
			if isDirectiveModifier(head) {
				expr = strings.TrimSpace(expr[idx+1:])
			}
		}
		if expr == "" {
			return p.errf("%s clause requires an expression", kind)
		}
		c.Expr = expr
	case ClauseDefault:
		arg, ni, err := scanBalancedExpr(p.raw, p.toks, p.i)
		if err != nil {
			return err
		}
		p.i = ni
		switch strings.ToLower(arg) {
		case "shared":
			c.Default = DefaultShared
		case "none":
			c.Default = DefaultNone
		case "private":
			c.Default = DefaultPrivate
		case "firstprivate":
			c.Default = DefaultFirstprivate
		default:
			return p.errf("invalid default(%s); want shared, none, private or firstprivate", arg)
		}
	case ClausePrivate, ClauseFirstprivate, ClauseLastprivate, ClauseShared,
		ClauseCopyin, ClauseCopyprivate:
		vars, err := p.parseParenVarList()
		if err != nil {
			return err
		}
		if len(vars) == 0 {
			return p.errf("%s clause requires at least one variable", kind)
		}
		c.Vars = vars
	case ClauseReduction:
		if err := p.parseReductionArgs(c); err != nil {
			return err
		}
	case ClauseDepend:
		if err := p.parseDependArgs(c); err != nil {
			return err
		}
	case ClauseGrainsize, ClauseNumTasks:
		expr, ni, err := scanBalancedExpr(p.raw, p.toks, p.i)
		if err != nil {
			return err
		}
		p.i = ni
		if strings.TrimSpace(expr) == "" {
			return p.errf("%s clause requires an expression", kind)
		}
		c.Expr = strings.TrimSpace(expr)
	case ClauseSchedule:
		if err := p.parseScheduleArgs(c); err != nil {
			return err
		}
	case ClauseCollapse:
		expr, ni, err := scanBalancedExpr(p.raw, p.toks, p.i)
		if err != nil {
			return err
		}
		p.i = ni
		n, err := strconv.Atoi(strings.TrimSpace(expr))
		if err != nil || n < 1 {
			return p.errf("collapse requires a positive integer constant, got %q", expr)
		}
		c.Expr = strconv.Itoa(n)
	case ClauseOrdered, ClauseUntied, ClauseMergeable, ClauseNogroup:
		// no arguments
	case ClauseNowait:
		// OMP4Py supports the optional argument from newer standards.
		if p.cur().kind == tokLParen {
			expr, ni, err := scanBalancedExpr(p.raw, p.toks, p.i)
			if err != nil {
				return err
			}
			p.i = ni
			c.Expr = expr
		}
	}
	return nil
}

func isDirectiveModifier(s string) bool {
	switch strings.ToLower(s) {
	case "parallel", "for", "task", "sections", "single", "target", "taskloop", "simd", "cancel":
		return true
	}
	return false
}

func (p *parser) parseReductionArgs(c *Clause) error {
	if p.cur().kind != tokLParen {
		return p.errf("expected '(' after reduction, found %s", p.cur())
	}
	p.next()
	// Operator: built-in token(s) or identifier for declared reductions.
	var op string
	switch p.cur().kind {
	case tokOp:
		op = p.next().text
	case tokIdent:
		switch t := strings.ToLower(p.cur().text); t {
		case "min", "max":
			op = t
			p.next()
		default:
			op = p.next().text // user-declared reduction identifier
		}
	default:
		return p.errf("expected reduction operator, found %s", p.cur())
	}
	if p.cur().kind != tokColon {
		return p.errf("expected ':' after reduction operator, found %s", p.cur())
	}
	p.next()
	var vars []string
	for {
		if p.cur().kind != tokIdent {
			return p.errf("expected variable name in reduction list, found %s", p.cur())
		}
		vars = append(vars, p.next().text)
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.cur().kind != tokRParen {
		return p.errf("expected ')' closing reduction clause, found %s", p.cur())
	}
	p.next()
	c.Op = op
	c.Vars = vars
	return nil
}

// parseDependArgs parses depend(in: a, b) — dependence type, colon,
// variable list. The type lands in c.Op, the list in c.Vars.
func (p *parser) parseDependArgs(c *Clause) error {
	if p.cur().kind != tokLParen {
		return p.errf("expected '(' after depend, found %s", p.cur())
	}
	p.next()
	if p.cur().kind != tokIdent {
		return p.errf("expected dependence type (in, out, inout), found %s", p.cur())
	}
	typ := strings.ToLower(p.next().text)
	switch typ {
	case "in", "out", "inout":
	default:
		return p.errf("invalid dependence type %q; want in, out or inout", typ)
	}
	if p.cur().kind != tokColon {
		return p.errf("expected ':' after dependence type, found %s", p.cur())
	}
	p.next()
	// Operands are names with optional subscripts: a, b[i], c[i][j].
	// Subscript text is kept raw; the transformer parses it as a
	// MiniPy expression evaluated at task-submission time.
	var vars []string
	for {
		if p.cur().kind != tokIdent {
			return p.errf("expected variable name in depend list, found %s", p.cur())
		}
		startTok := p.cur()
		end := startTok.pos + len(startTok.text)
		p.next()
		for p.cur().kind == tokOther && p.cur().text == "[" {
			depth := 0
			for {
				t := p.cur()
				if t.kind == tokEOF {
					return p.errf("unbalanced '[' in depend clause")
				}
				if t.kind == tokOther && t.text == "[" {
					depth++
				}
				if t.kind == tokOther && t.text == "]" {
					depth--
					if depth == 0 {
						end = t.pos + 1
						p.next()
						break
					}
				}
				p.next()
			}
		}
		vars = append(vars, strings.TrimSpace(p.raw[startTok.pos:end]))
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.cur().kind != tokRParen {
		return p.errf("expected ')' closing depend clause, found %s", p.cur())
	}
	p.next()
	c.Op = typ
	c.Vars = vars
	return nil
}

func (p *parser) parseScheduleArgs(c *Clause) error {
	if p.cur().kind != tokLParen {
		return p.errf("expected '(' after schedule, found %s", p.cur())
	}
	p.next()
	if p.cur().kind != tokIdent {
		return p.errf("expected schedule kind, found %s", p.cur())
	}
	kind, err := ParseScheduleKind(p.cur().text)
	if err != nil {
		return p.errf("%v", err)
	}
	p.next()
	c.Sched = kind
	if p.cur().kind == tokComma {
		p.next()
		// Chunk size: scan until the closing paren, allowing
		// arbitrary expressions.
		start := p.cur().pos
		depth := 1
		for {
			switch p.cur().kind {
			case tokLParen:
				depth++
				p.next()
			case tokRParen:
				depth--
				if depth == 0 {
					c.Expr = strings.TrimSpace(p.raw[start:p.cur().pos])
					if c.Expr == "" {
						return p.errf("empty chunk size in schedule clause")
					}
					if kind == ScheduleRuntime || kind == ScheduleAuto {
						return p.errf("schedule(%s) does not accept a chunk size", kind)
					}
					p.next()
					return nil
				}
				p.next()
			case tokEOF:
				return p.errf("unbalanced parentheses in schedule clause")
			default:
				p.next()
			}
		}
	}
	if p.cur().kind != tokRParen {
		return p.errf("expected ')' closing schedule clause, found %s", p.cur())
	}
	p.next()
	if kind == ScheduleRuntime && c.Expr != "" {
		return p.errf("schedule(runtime) does not accept a chunk size")
	}
	return nil
}

// parseDeclareReduction parses
//
//	declare reduction(ident : combiner) [initializer(expr)]
func (p *parser) parseDeclareReduction() (*DeclaredReduction, error) {
	if p.cur().kind != tokLParen {
		return nil, p.errf("expected '(' after declare reduction, found %s", p.cur())
	}
	body, ni, err := scanBalancedExpr(p.raw, p.toks, p.i)
	if err != nil {
		return nil, err
	}
	p.i = ni
	idx := strings.Index(body, ":")
	if idx <= 0 {
		return nil, p.errf("declare reduction requires 'identifier : combiner'")
	}
	dr := &DeclaredReduction{
		Ident:    strings.TrimSpace(body[:idx]),
		Combiner: strings.TrimSpace(body[idx+1:]),
	}
	if dr.Ident == "" || dr.Combiner == "" {
		return nil, p.errf("declare reduction requires 'identifier : combiner'")
	}
	if !isIdent(dr.Ident) {
		return nil, p.errf("declare reduction identifier %q is not a valid name", dr.Ident)
	}
	if p.cur().kind == tokIdent && strings.ToLower(p.cur().text) == "initializer" {
		p.next()
		init, ni, err := scanBalancedExpr(p.raw, p.toks, p.i)
		if err != nil {
			return nil, err
		}
		p.i = ni
		if strings.HasPrefix(init, "omp_priv") {
			if eq := strings.Index(init, "="); eq >= 0 {
				init = strings.TrimSpace(init[eq+1:])
			}
		}
		if init == "" {
			return nil, p.errf("initializer clause requires an expression")
		}
		dr.Initializer = init
	}
	return dr, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 && !isIdentStart(r) {
			return false
		}
		if i > 0 && !isIdentCont(r) {
			return false
		}
	}
	return !strings.Contains(s, ".")
}

func fmtList(kinds []ClauseKind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}
