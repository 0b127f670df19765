// Package parser implements the frontend for the sparkgo behavioral
// description language: the ANSI-C subset that the Spark paper's listings
// use (fixed-width integer scalars, booleans, one-dimensional arrays,
// if/for/while, functions), extended with explicit bit-width type names
// (uint4, int12, ...) and a "#bound N" directive asserting the maximum trip
// count of a data-dependent while loop (needed to fully unroll the Fig 16
// natural form of the ILD).
package parser

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokPunct
	TokDirective // #word
	TokKeyword
)

var keywords = map[string]bool{
	"if": true, "else": true, "for": true, "while": true,
	"return": true, "true": true, "false": true,
}

// Token is one lexical token. For TokNumber, Val holds the parsed value.
// For TokDirective, Text holds the directive word (without '#').
type Token struct {
	Kind TokKind
	Text string
	Val  int64
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokNumber:
		return fmt.Sprintf("number %d", t.Val)
	case TokDirective:
		return "#" + t.Text
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Lexer splits source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Error is a frontend error carrying source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func (lx *Lexer) errf(format string, args ...any) error {
	return &Error{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *Lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) byteAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.byteAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.byteAt(1) == '*':
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.byteAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// multi-byte punctuators, longest first so maximal munch works.
var puncts = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
	"<", ">", "=", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := lx.peekByte()
	switch {
	case c == '#':
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		tok.Kind = TokDirective
		tok.Text = lx.src[start:lx.pos]
		if tok.Text == "" {
			return tok, lx.errf("empty directive")
		}
		return tok, nil
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		tok.Text = lx.src[start:lx.pos]
		if keywords[tok.Text] {
			tok.Kind = TokKeyword
		} else {
			tok.Kind = TokIdent
		}
		return tok, nil
	case isDigit(c):
		return lx.number()
	case c == '\'':
		// character literal, e.g. 'a'
		lx.advance()
		if lx.pos >= len(lx.src) {
			return tok, lx.errf("unterminated character literal")
		}
		ch := lx.advance()
		if ch == '\\' {
			if lx.pos >= len(lx.src) {
				return tok, lx.errf("unterminated escape")
			}
			esc := lx.advance()
			switch esc {
			case 'n':
				ch = '\n'
			case 't':
				ch = '\t'
			case '0':
				ch = 0
			case '\\', '\'':
				ch = esc
			default:
				return tok, lx.errf("unknown escape \\%c", esc)
			}
		}
		if lx.peekByte() != '\'' {
			return tok, lx.errf("unterminated character literal")
		}
		lx.advance()
		tok.Kind = TokNumber
		tok.Val = int64(ch)
		tok.Text = fmt.Sprintf("%d", tok.Val)
		return tok, nil
	default:
		rest := lx.src[lx.pos:]
		for _, p := range puncts {
			if strings.HasPrefix(rest, p) {
				for range p {
					lx.advance()
				}
				tok.Kind = TokPunct
				tok.Text = p
				return tok, nil
			}
		}
		return tok, lx.errf("unexpected character %q", string(c))
	}
}

func (lx *Lexer) number() (Token, error) {
	tok := Token{Kind: TokNumber, Line: lx.line, Col: lx.col}
	start := lx.pos
	base := 10
	if lx.peekByte() == '0' && (lx.byteAt(1) == 'x' || lx.byteAt(1) == 'X') {
		base = 16
		lx.advance()
		lx.advance()
		for lx.pos < len(lx.src) && (isHexDigit(lx.peekByte()) || lx.peekByte() == '_') {
			lx.advance()
		}
	} else if lx.peekByte() == '0' && (lx.byteAt(1) == 'b' || lx.byteAt(1) == 'B') {
		base = 2
		lx.advance()
		lx.advance()
		for lx.pos < len(lx.src) && (lx.peekByte() == '0' || lx.peekByte() == '1' || lx.peekByte() == '_') {
			lx.advance()
		}
	} else {
		for lx.pos < len(lx.src) && (isDigit(lx.peekByte()) || lx.peekByte() == '_') {
			lx.advance()
		}
	}
	text := lx.src[start:lx.pos]
	tok.Text = text
	digits := strings.ReplaceAll(text, "_", "")
	if base == 16 {
		digits = digits[2:]
	} else if base == 2 {
		digits = digits[2:]
	}
	if digits == "" {
		return tok, lx.errf("malformed number %q", text)
	}
	var v uint64
	for i := 0; i < len(digits); i++ {
		d := digits[i]
		var dv uint64
		switch {
		case d >= '0' && d <= '9':
			dv = uint64(d - '0')
		case d >= 'a' && d <= 'f':
			dv = uint64(d-'a') + 10
		case d >= 'A' && d <= 'F':
			dv = uint64(d-'A') + 10
		default:
			return tok, lx.errf("bad digit %q in number", string(d))
		}
		if dv >= uint64(base) {
			return tok, lx.errf("digit %q out of range for base %d", string(d), base)
		}
		nv := v*uint64(base) + dv
		if nv < v {
			return tok, lx.errf("integer literal %q overflows", text)
		}
		v = nv
	}
	tok.Val = int64(v)
	if isIdentStart(lx.peekByte()) {
		return tok, lx.errf("identifier character immediately after number")
	}
	return tok, nil
}

// LexAll tokenizes the entire input. Parse calls it once per program,
// so it runs on every source the service parses.
func LexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
