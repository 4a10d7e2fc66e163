package directive

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind classifies directive-string tokens.
type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokColon
	tokSemi
	tokOp  // an operator usable as reduction op: + * - & | ^ && ||
	tokEOF // end of input
	tokOther
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of directive"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError reports a malformed directive. It mirrors the
// SyntaxError OMP4Py raises at decoration time.
type SyntaxError struct {
	Directive string // the raw directive text
	Pos       int    // byte offset of the offending token
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("omp syntax error: %s in directive %q at offset %d", e.Msg, e.Directive, e.Pos)
}

func errf(raw string, pos int, format string, args ...any) error {
	return &SyntaxError{Directive: raw, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// lex tokenizes a directive string. Directive strings are short; the
// lexer keeps the whole token slice in memory.
func lex(src string) ([]token, error) {
	// Directives average over 3 bytes per token.
	toks := make([]token, 0, len(src)/3+2)
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == ':':
			toks = append(toks, token{tokColon, ":", i})
			i++
		case c == ';':
			toks = append(toks, token{tokSemi, ";", i})
			i++
		case c == '&' || c == '|':
			if i+1 < n && src[i+1] == c {
				toks = append(toks, token{tokOp, src[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, src[i : i+1], i})
				i++
			}
		case c == '+' || c == '*' || c == '-' || c == '^':
			toks = append(toks, token{tokOp, src[i : i+1], i})
			i++
		case isIdentStart(rune(c)):
			j := i + 1
			for j < n && isIdentCont(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		case unicode.IsDigit(rune(c)):
			j := i + 1
			for j < n && (unicode.IsDigit(rune(src[j])) || src[j] == '.' || src[j] == 'e' ||
				src[j] == 'E' || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		default:
			// Other characters (e.g. operators inside if() expressions)
			// are tolerated as opaque single-char tokens; balanced-paren
			// expression scanning handles them.
			text := src[i : i+1]
			if c >= utf8.RuneSelf {
				text = string(rune(c)) // quoted as Latin-1 in error messages
			}
			toks = append(toks, token{tokOther, text, i})
			i++
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// scanBalancedExpr returns the raw source between the '(' that toks[i]
// must point at and its matching ')'. It is used for clause arguments
// that carry arbitrary expressions (if, num_threads, final, chunk
// sizes). The returned index points at the token after the ')'.
func scanBalancedExpr(raw string, toks []token, i int) (string, int, error) {
	if toks[i].kind != tokLParen {
		return "", i, errf(raw, toks[i].pos, "expected '(' after clause keyword, found %s", toks[i])
	}
	depth := 0
	start := toks[i].pos + 1
	for j := i; ; j++ {
		switch toks[j].kind {
		case tokLParen:
			depth++
		case tokRParen:
			depth--
			if depth == 0 {
				return strings.TrimSpace(raw[start:toks[j].pos]), j + 1, nil
			}
		case tokEOF:
			return "", j, errf(raw, toks[j].pos, "unbalanced parentheses in clause argument")
		}
	}
}
