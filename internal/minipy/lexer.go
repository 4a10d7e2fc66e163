package minipy

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lex tokenizes MiniPy source, producing the INDENT/DEDENT structure
// of Python's tokenizer. Tabs count as 8 columns, comments run to end
// of line, newlines inside brackets are implicit continuations, and a
// trailing backslash joins physical lines.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src, line: 1, indents: []int{0}}
	if err := lx.run(); err != nil {
		return nil, err
	}
	return lx.toks, nil
}

type lexer struct {
	src     string
	i       int
	line    int
	lineOff int // byte offset of current line start
	toks    []Token
	indents []int
	depth   int // bracket nesting depth
	atStart bool
}

func (lx *lexer) pos() Position { return Position{Line: lx.line, Col: lx.i - lx.lineOff} }

func (lx *lexer) errf(format string, args ...any) error {
	return &Error{Pos: lx.pos(), Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) emit(kind TokKind, text string, pos Position) {
	lx.toks = append(lx.toks, Token{Kind: kind, Text: text, Pos: pos})
}

func (lx *lexer) run() error {
	lx.atStart = true
	for lx.i < len(lx.src) {
		if lx.atStart && lx.depth == 0 {
			// handleIndent manages atStart: blank/comment lines keep
			// it set so the next line is measured too.
			if err := lx.handleIndent(); err != nil {
				return err
			}
			continue
		}
		c := lx.src[lx.i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.i++
		case c == '#':
			for lx.i < len(lx.src) && lx.src[lx.i] != '\n' {
				lx.i++
			}
		case c == '\\' && lx.i+1 < len(lx.src) && (lx.src[lx.i+1] == '\n' || lx.src[lx.i+1] == '\r'):
			// Explicit line join.
			lx.i++
			if lx.src[lx.i] == '\r' {
				lx.i++
			}
			if lx.i < len(lx.src) && lx.src[lx.i] == '\n' {
				lx.i++
			}
			lx.line++
			lx.lineOff = lx.i
		case c == '\n':
			lx.i++
			if lx.depth == 0 {
				if n := len(lx.toks); n > 0 && lx.toks[n-1].Kind != NEWLINE &&
					lx.toks[n-1].Kind != INDENT && lx.toks[n-1].Kind != DEDENT {
					lx.emit(NEWLINE, "", lx.pos())
				}
				lx.atStart = true
			}
			lx.line++
			lx.lineOff = lx.i
		case c == '"' || c == '\'':
			if err := lx.lexString(); err != nil {
				return err
			}
		case unicode.IsDigit(rune(c)) || (c == '.' && lx.i+1 < len(lx.src) && unicode.IsDigit(rune(lx.src[lx.i+1]))):
			if err := lx.lexNumber(); err != nil {
				return err
			}
		case isNameStart(lx.runeAt(lx.i)):
			lx.lexName()
		default:
			if err := lx.lexOp(); err != nil {
				return err
			}
		}
	}
	// Final NEWLINE and closing DEDENTs.
	if n := len(lx.toks); n > 0 && lx.toks[n-1].Kind != NEWLINE {
		lx.emit(NEWLINE, "", lx.pos())
	}
	for len(lx.indents) > 1 {
		lx.indents = lx.indents[:len(lx.indents)-1]
		lx.emit(DEDENT, "", lx.pos())
	}
	lx.emit(EOF, "", lx.pos())
	return nil
}

// handleIndent measures the leading whitespace of a logical line and
// emits INDENT/DEDENT tokens. Blank and comment-only lines produce no
// tokens.
func (lx *lexer) handleIndent() error {
	col := 0
	j := lx.i
	for j < len(lx.src) {
		switch lx.src[j] {
		case ' ':
			col++
			j++
		case '\t':
			col += 8 - col%8
			j++
		case '\r':
			j++
		default:
			goto measured
		}
	}
measured:
	if j >= len(lx.src) || lx.src[j] == '\n' || lx.src[j] == '#' {
		// Blank or comment-only line: consume it without tokens.
		lx.i = j
		if j < len(lx.src) && lx.src[j] == '#' {
			for lx.i < len(lx.src) && lx.src[lx.i] != '\n' {
				lx.i++
			}
		}
		if lx.i < len(lx.src) { // the '\n'
			lx.i++
			lx.line++
			lx.lineOff = lx.i
		}
		lx.atStart = true
		if lx.i >= len(lx.src) {
			lx.atStart = false
		}
		return nil
	}
	lx.i = j
	lx.atStart = false
	cur := lx.indents[len(lx.indents)-1]
	switch {
	case col > cur:
		lx.indents = append(lx.indents, col)
		lx.emit(INDENT, "", lx.pos())
	case col < cur:
		for len(lx.indents) > 1 && lx.indents[len(lx.indents)-1] > col {
			lx.indents = lx.indents[:len(lx.indents)-1]
			lx.emit(DEDENT, "", lx.pos())
		}
		if lx.indents[len(lx.indents)-1] != col {
			return lx.errf("unindent does not match any outer indentation level")
		}
	}
	return nil
}

func (lx *lexer) lexString() error {
	pos := lx.pos()
	end := lx.src[lx.i : lx.i+1]
	triple := lx.i+2 < len(lx.src) && lx.src[lx.i+1] == end[0] && lx.src[lx.i+2] == end[0]
	if triple {
		end = lx.src[lx.i : lx.i+3]
	}
	lx.i += len(end)
	// The literal's bytes are the source's, verbatim (the source is
	// UTF-8 and so is the value): a slice of it, until an escape makes b
	// take over, run being the start of the bytes b has yet to copy.
	start, run, escaped := lx.i, lx.i, false
	var b strings.Builder
	for {
		switch {
		case triple && lx.i+1 >= len(lx.src):
			return lx.errf("unterminated triple-quoted string")
		case !triple && (lx.i >= len(lx.src) || lx.src[lx.i] == '\n'):
			return lx.errf("unterminated string literal")
		case strings.HasPrefix(lx.src[lx.i:], end):
			text := lx.src[start:lx.i]
			if escaped {
				b.WriteString(lx.src[run:lx.i])
				text = b.String()
			}
			lx.i += len(end)
			lx.emit(STRING, text, pos)
			return nil
		case lx.src[lx.i] == '\n':
			lx.line++
			lx.i++
			lx.lineOff = lx.i
		case lx.src[lx.i] == '\\':
			b.WriteString(lx.src[run:lx.i])
			c, err := lx.escape()
			if err != nil {
				return err
			}
			b.WriteString(c)
			run, escaped = lx.i, true
		default:
			lx.i++
		}
	}
}

// escape consumes the backslash escape at lx.i and returns its value.
func (lx *lexer) escape() (string, error) {
	if lx.i+1 >= len(lx.src) {
		return "", lx.errf("dangling backslash in string")
	}
	e := lx.src[lx.i+1]
	lx.i += 2
	switch e {
	case 'n':
		return "\n", nil
	case 't':
		return "\t", nil
	case 'r':
		return "\r", nil
	case '\\':
		return "\\", nil
	case '\'':
		return "'", nil
	case '"':
		return "\"", nil
	case '0':
		return "\x00", nil
	case '\n':
		lx.line++
		lx.lineOff = lx.i
		return "", nil // line continuation inside string
	default:
		// Python keeps unknown escapes literally.
		return lx.src[lx.i-2 : lx.i], nil
	}
}

func (lx *lexer) lexNumber() error {
	pos := lx.pos()
	start := lx.i
	isFloat := false
	// Hex/octal/binary integers.
	if lx.src[lx.i] == '0' && lx.i+1 < len(lx.src) &&
		(lx.src[lx.i+1] == 'x' || lx.src[lx.i+1] == 'X' ||
			lx.src[lx.i+1] == 'o' || lx.src[lx.i+1] == 'O' ||
			lx.src[lx.i+1] == 'b' || lx.src[lx.i+1] == 'B') {
		lx.i += 2
		for lx.i < len(lx.src) && (isHexDigit(lx.src[lx.i]) || lx.src[lx.i] == '_') {
			lx.i++
		}
		lx.emit(INT, lx.src[start:lx.i], pos)
		return nil
	}
	for lx.i < len(lx.src) && (unicode.IsDigit(rune(lx.src[lx.i])) || lx.src[lx.i] == '_') {
		lx.i++
	}
	if lx.i < len(lx.src) && lx.src[lx.i] == '.' &&
		!(lx.i+1 < len(lx.src) && lx.src[lx.i+1] == '.') {
		// A trailing attribute access like 1 .real is not supported;
		// dot always extends the number here.
		if lx.i+1 >= len(lx.src) || !isNameStart(rune(lx.src[lx.i+1])) {
			isFloat = true
			lx.i++
			for lx.i < len(lx.src) && (unicode.IsDigit(rune(lx.src[lx.i])) || lx.src[lx.i] == '_') {
				lx.i++
			}
		}
	}
	if lx.i < len(lx.src) && (lx.src[lx.i] == 'e' || lx.src[lx.i] == 'E') {
		j := lx.i + 1
		if j < len(lx.src) && (lx.src[j] == '+' || lx.src[j] == '-') {
			j++
		}
		if j < len(lx.src) && unicode.IsDigit(rune(lx.src[j])) {
			isFloat = true
			lx.i = j
			for lx.i < len(lx.src) && unicode.IsDigit(rune(lx.src[lx.i])) {
				lx.i++
			}
		}
	}
	text := strings.ReplaceAll(lx.src[start:lx.i], "_", "")
	if isFloat {
		lx.emit(FLOAT, text, pos)
	} else {
		lx.emit(INT, text, pos)
	}
	return nil
}

func (lx *lexer) lexName() {
	pos := lx.pos()
	start := lx.i
	for lx.i < len(lx.src) {
		r, width := utf8.DecodeRuneInString(lx.src[lx.i:])
		if !isNameCont(r) {
			break
		}
		lx.i += width
	}
	text := lx.src[start:lx.i]
	if keywords[text] {
		lx.emit(KEYWORD, text, pos)
	} else {
		lx.emit(NAME, text, pos)
	}
}

// operator tokens, longest first.
var operators = []string{
	"**=", "//=", "<<=", ">>=",
	"**", "//", "<<", ">>", "<=", ">=", "==", "!=", "->",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"+", "-", "*", "/", "%", "<", ">", "=", "(", ")", "[", "]",
	"{", "}", ",", ":", ".", ";", "@", "&", "|", "^", "~",
}

func (lx *lexer) lexOp() error {
	pos := lx.pos()
	rest := lx.src[lx.i:]
	for _, op := range operators {
		if strings.HasPrefix(rest, op) {
			switch op {
			case "(", "[", "{":
				lx.depth++
			case ")", "]", "}":
				if lx.depth > 0 {
					lx.depth--
				}
			}
			lx.i += len(op)
			lx.emit(OP, op, pos)
			return nil
		}
	}
	return lx.errf("unexpected character %q", lx.src[lx.i])
}

// runeAt decodes the character starting at byte i.
func (lx *lexer) runeAt(i int) rune {
	if c := lx.src[i]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[i:])
	return r
}

func isNameStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isNameCont(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
