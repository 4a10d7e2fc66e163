package minipy

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func lexKinds(t *testing.T, src string) []TokKind {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	kinds := make([]TokKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	return kinds
}

func lexTexts(t *testing.T, src string) []string {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var out []string
	for _, tok := range toks {
		if tok.Kind == NAME || tok.Kind == OP || tok.Kind == KEYWORD ||
			tok.Kind == INT || tok.Kind == FLOAT || tok.Kind == STRING {
			out = append(out, tok.Text)
		}
	}
	return out
}

func TestLexSimpleLine(t *testing.T) {
	got := lexTexts(t, "x = 1 + 2\n")
	want := []string{"x", "=", "1", "+", "2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLexIndentation(t *testing.T) {
	src := "if a:\n    x = 1\n    y = 2\nz = 3\n"
	kinds := lexKinds(t, src)
	var indents, dedents int
	for _, k := range kinds {
		switch k {
		case INDENT:
			indents++
		case DEDENT:
			dedents++
		}
	}
	if indents != 1 || dedents != 1 {
		t.Fatalf("indents=%d dedents=%d, want 1/1", indents, dedents)
	}
}

func TestLexNestedIndentation(t *testing.T) {
	src := "if a:\n  if b:\n    x = 1\ny = 2\n"
	kinds := lexKinds(t, src)
	var indents, dedents int
	for _, k := range kinds {
		switch k {
		case INDENT:
			indents++
		case DEDENT:
			dedents++
		}
	}
	if indents != 2 || dedents != 2 {
		t.Fatalf("indents=%d dedents=%d, want 2/2", indents, dedents)
	}
}

func TestLexDedentAtEOF(t *testing.T) {
	src := "if a:\n    x = 1" // no trailing newline
	kinds := lexKinds(t, src)
	last3 := kinds[len(kinds)-3:]
	if last3[0] != NEWLINE || last3[1] != DEDENT || last3[2] != EOF {
		t.Fatalf("tail = %v", last3)
	}
}

func TestLexBadDedent(t *testing.T) {
	src := "if a:\n    x = 1\n  y = 2\n"
	if _, err := Lex(src); err == nil {
		t.Fatal("expected unindent error")
	}
}

func TestLexBlankAndCommentLines(t *testing.T) {
	src := "x = 1\n\n# comment\n   \ny = 2  # trailing\n"
	got := lexTexts(t, src)
	want := "x = 1 y = 2"
	if strings.Join(got, " ") != want {
		t.Fatalf("got %v", got)
	}
	// Blank lines inside a block do not change indentation.
	src2 := "if a:\n    x = 1\n\n    y = 2\n"
	kinds := lexKinds(t, src2)
	var dedents int
	for _, k := range kinds {
		if k == DEDENT {
			dedents++
		}
	}
	if dedents != 1 {
		t.Fatalf("dedents = %d, want 1", dedents)
	}
}

func TestLexImplicitContinuation(t *testing.T) {
	src := "x = (1 +\n     2 +\n     3)\ny = [1,\n 2]\n"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	newlines := 0
	for _, tok := range toks {
		if tok.Kind == NEWLINE {
			newlines++
		}
	}
	if newlines != 2 {
		t.Fatalf("newlines = %d, want 2 (brackets suppress them)", newlines)
	}
}

func TestLexExplicitContinuation(t *testing.T) {
	got := lexTexts(t, "x = 1 + \\\n    2\n")
	want := []string{"x", "=", "1", "+", "2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v", got)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("a = 42 3.14 1e9 2.5e-3 0xFF 0b101 0o17 1_000_000 .5\n")
	if err != nil {
		t.Fatal(err)
	}
	var ints, floats []string
	for _, tok := range toks {
		switch tok.Kind {
		case INT:
			ints = append(ints, tok.Text)
		case FLOAT:
			floats = append(floats, tok.Text)
		}
	}
	wantInts := []string{"42", "0xFF", "0b101", "0o17", "1000000"}
	wantFloats := []string{"3.14", "1e9", "2.5e-3", ".5"}
	if strings.Join(ints, " ") != strings.Join(wantInts, " ") {
		t.Fatalf("ints = %v, want %v", ints, wantInts)
	}
	if strings.Join(floats, " ") != strings.Join(wantFloats, " ") {
		t.Fatalf("floats = %v, want %v", floats, wantFloats)
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := Lex(`s = "hi" 'there' "esc\n\t\"q\"" """triple
line"""` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	for _, tok := range toks {
		if tok.Kind == STRING {
			strs = append(strs, tok.Text)
		}
	}
	if len(strs) != 4 {
		t.Fatalf("strings = %q", strs)
	}
	if strs[0] != "hi" || strs[1] != "there" {
		t.Fatalf("plain strings = %q", strs[:2])
	}
	if strs[2] != "esc\n\t\"q\"" {
		t.Fatalf("escaped = %q", strs[2])
	}
	if strs[3] != "triple\nline" {
		t.Fatalf("triple = %q", strs[3])
	}
}

func TestLexUnterminatedString(t *testing.T) {
	if _, err := Lex("s = \"oops\n"); err == nil {
		t.Fatal("expected unterminated string error")
	}
	if _, err := Lex("s = \"\"\"oops\n"); err == nil {
		t.Fatal("expected unterminated triple string error")
	}
}

func TestLexKeywordsVsNames(t *testing.T) {
	toks, err := Lex("for forx in ink\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != KEYWORD || toks[0].Text != "for" {
		t.Fatalf("tok0 = %v", toks[0])
	}
	if toks[1].Kind != NAME || toks[1].Text != "forx" {
		t.Fatalf("tok1 = %v", toks[1])
	}
	if toks[2].Kind != KEYWORD || toks[2].Text != "in" {
		t.Fatalf("tok2 = %v", toks[2])
	}
	if toks[3].Kind != NAME || toks[3].Text != "ink" {
		t.Fatalf("tok3 = %v", toks[3])
	}
}

func TestLexMultiCharOperators(t *testing.T) {
	got := lexTexts(t, "a **= b // c << d >= e != f -> g\n")
	want := []string{"a", "**=", "b", "//", "c", "<<", "d", ">=", "e", "!=", "f", "->", "g"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v", got)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a = 1\nbb = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 0 {
		t.Fatalf("a at %v", toks[0].Pos)
	}
	var bb Token
	for _, tok := range toks {
		if tok.Text == "bb" {
			bb = tok
		}
	}
	if bb.Pos.Line != 2 || bb.Pos.Col != 0 {
		t.Fatalf("bb at %v", bb.Pos)
	}
}

func TestLexUnexpectedChar(t *testing.T) {
	if _, err := Lex("a = 1 ?\n"); err == nil {
		t.Fatal("expected error for '?'")
	}
}

// TestLexNonASCII: the source is UTF-8 and a literal's value is its
// bytes, whether the lexer sliced them out of the source or built them
// around an escape; identifiers are decoded a character, not a byte, at
// a time. (The lexer used to convert each byte to a rune of its own:
// "café ✓" came out as "cafÃ© â", and é = 1 failed on '©'.)
func TestLexNonASCII(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"multibyte, no escape", `"café ✓"`, "café ✓"},
		{"single quotes", `'naïve ☃'`, "naïve ☃"},
		{"escape before multibyte", `"a\tcafé"`, "a\tcafé"},
		{"escape after multibyte", `"café\n✓"`, "café\n✓"},
		{"escapes between multibyte", `"é\\\"✓\'"`, "é\\\"✓'"},
		{"unknown escape stays literal", `"\q\é✓"`, `\q\é✓`},
		{"NUL escape", `"✓\0✓"`, "✓\x00✓"},
		{"line continuation", "\"caf\\\né\"", "café"},
		{"four-byte character", "\"\U0001D6D1 = 3\"", "\U0001D6D1 = 3"},
		{"triple-quoted multibyte", "\"\"\"café\n✓ \"quoted\" \"\"\"", "café\n✓ \"quoted\" "},
		{"triple-quoted with escape", "'''é\\t✓\n'''", "é\t✓\n"},
		{"empty", `""`, ""},
	} {
		toks, err := Lex("s = " + tc.src + "\n")
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if toks[2].Kind != STRING || toks[2].Text != tc.want {
			t.Errorf("%s: lexed %q, want %q", tc.name, toks[2].Text, tc.want)
		}
	}

	got := lexTexts(t, "é = 1\nnaïve_2 = é + Ωmega\n")
	want := []string{"é", "=", "1", "naïve_2", "=", "é", "+", "Ωmega"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("identifiers: got %q, want %q", got, want)
	}
	// Columns stay byte offsets, and a character that starts no token is
	// still reported by its first byte.
	toks, err := Lex("é = \"✓\" + b\n")
	if err != nil || toks[4].Text != "b" || toks[4].Pos.Col != 13 {
		t.Fatalf("got %v, %v; want b at byte column 13", toks, err)
	}
	if _, err := Lex("a = ✓\n"); err == nil || !strings.Contains(err.Error(), `unexpected character 'â'`) {
		t.Fatalf("err = %v, want unexpected character 'â'", err)
	}
	if _, err := Lex("a = \"✓\n"); err == nil || !strings.Contains(err.Error(), "unterminated string literal") {
		t.Fatalf("err = %v, want unterminated string literal", err)
	}
}

// TestLexOperators lexes every string of one to three bytes over the
// operator alphabet and compares the result with a longest-match
// reference over the operator list below, kept here independently of
// the lexer's.
func TestLexOperators(t *testing.T) {
	ops := []string{
		"**=", "//=", "<<=", ">>=",
		"**", "//", "<<", ">>", "<=", ">=", "==", "!=", "->",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
		"+", "-", "*", "/", "%", "<", ">", "=", "(", ")", "[", "]",
		"{", "}", ",", ":", ".", ";", "@", "&", "|", "^", "~",
	}
	var alphabet []byte
	for _, op := range ops {
		for i := 0; i < len(op); i++ {
			if !bytes.ContainsRune(alphabet, rune(op[i])) {
				alphabet = append(alphabet, op[i])
			}
		}
	}
	// want is the reference: the tokens of s, or the error.
	want := func(s string) ([]Token, string) {
		var toks []Token
		for i := 0; i < len(s); {
			best := ""
			for _, op := range ops {
				if strings.HasPrefix(s[i:], op) && len(op) > len(best) {
					best = op
				}
			}
			if best == "" {
				return nil, fmt.Sprintf("line 1 col %d: unexpected character %q", i+1, s[i])
			}
			toks = append(toks, Token{Kind: OP, Text: best, Pos: Position{Line: 1, Col: i}})
			i += len(best)
		}
		end := Position{Line: 1, Col: len(s)}
		return append(toks, Token{Kind: NEWLINE, Pos: end}, Token{Kind: EOF, Pos: end}), ""
	}
	var check func(s string)
	check = func(s string) {
		if len(s) > 0 {
			toks, err := Lex(s)
			wantToks, wantErr := want(s)
			switch {
			case wantErr != "":
				if err == nil || err.Error() != wantErr {
					t.Errorf("Lex(%q) error %v, want %s", s, err, wantErr)
				}
			case err != nil:
				t.Errorf("Lex(%q): %v", s, err)
			case !reflect.DeepEqual(toks, wantToks):
				t.Errorf("Lex(%q) = %v, want %v", s, toks, wantToks)
			}
		}
		if len(s) < 3 {
			for _, c := range alphabet {
				check(s + string(c))
			}
		}
	}
	check("")
}
