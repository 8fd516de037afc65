package lexer

import (
	"strings"

	"f90y/internal/source"
)

// Lexer scans free-form Fortran 90 text into tokens.
type Lexer struct {
	file string
	src  string
	off  int // byte offset of next rune
	line int
	col  int
	rep  *source.Reporter

	lastEmitted Kind // used to suppress redundant NEWLINE tokens
}

// New returns a Lexer over src. Diagnostics go to rep, which must be
// non-nil.
func New(file, src string, rep *source.Reporter) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1, rep: rep, lastEmitted: NEWLINE}
}

// Tokens scans the whole input and returns the token stream, always
// terminated by an EOF token. Blank lines and comment-only lines produce no
// tokens; consecutive NEWLINEs are collapsed.
func Tokens(file, src string, rep *source.Reporter) []Token {
	lx := New(file, src, rep)
	// Sized once: Fortran runs 0.3–0.45 tokens a byte, so half the bytes
	// over-estimates (a denser source still grows by append) and the
	// unused tail is clipped off the capacity.
	toks := make([]Token, 0, len(src)/2+2)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks[:len(toks):len(toks)]
		}
	}
}

func (l *Lexer) pos() source.Pos {
	return source.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipToEOL discards everything up to (not including) the next newline.
func (l *Lexer) skipToEOL() {
	for l.off < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
}

// isDirectivePrefix reports whether the input at the current '!' begins
// an HPF directive sentinel "!hpf$" (case-insensitive).
func (l *Lexer) isDirectivePrefix() bool {
	const sentinel = "!hpf$"
	if l.off+len(sentinel) > len(l.src) {
		return false
	}
	return strings.EqualFold(l.src[l.off:l.off+len(sentinel)], sentinel)
}

// scanDirective consumes "!hpf$ <body>" to end of line and returns a
// DIRECTIVE token whose Text is the trimmed body.
func (l *Lexer) scanDirective(pos source.Pos) Token {
	for i := 0; i < len("!hpf$"); i++ {
		l.advance()
	}
	start := l.off
	l.skipToEOL()
	return Token{Kind: DIRECTIVE, Text: strings.TrimSpace(l.src[start:l.off]), Pos: pos}
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' }
func isIdent(c byte) bool  { return isLetter(c) || isDigit(c) }

// Next returns the next token.
func (l *Lexer) Next() Token {
	for {
		t, ok := l.scan()
		if !ok {
			continue // skipped (e.g. redundant newline, continuation)
		}
		l.lastEmitted = t.Kind
		return t
	}
}

func (l *Lexer) scan() (Token, bool) {
	// Skip horizontal whitespace.
	for l.off < len(l.src) && (l.peek() == ' ' || l.peek() == '\t' || l.peek() == '\r') {
		l.advance()
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, true
	}
	c := l.peek()
	switch {
	case c == '!':
		// Ordinary comments are discarded, but an HPF compiler
		// directive comment ("!HPF$ ...", case-insensitive) is emitted
		// as a DIRECTIVE token carrying the directive body.
		if l.isDirectivePrefix() {
			return l.scanDirective(pos), true
		}
		l.skipToEOL()
		return Token{}, false
	case c == '\n':
		l.advance()
		if l.lastEmitted == NEWLINE {
			return Token{}, false // collapse blank lines
		}
		return Token{Kind: NEWLINE, Pos: pos}, true
	case c == '&':
		// Continuation: skip rest of line (allowing a trailing comment),
		// the newline, and an optional leading '&' on the next line.
		l.advance()
		for l.off < len(l.src) && (l.peek() == ' ' || l.peek() == '\t' || l.peek() == '\r') {
			l.advance()
		}
		if l.off < len(l.src) && l.peek() == '!' {
			l.skipToEOL()
		}
		if l.off < len(l.src) && l.peek() == '\n' {
			l.advance()
		} else if l.off < len(l.src) {
			l.rep.Errorf("lex", pos, "continuation '&' must end its line")
			l.skipToEOL()
		}
		// Optional leading '&' after whitespace.
		for l.off < len(l.src) && (l.peek() == ' ' || l.peek() == '\t') {
			l.advance()
		}
		if l.off < len(l.src) && l.peek() == '&' {
			l.advance()
		}
		return Token{}, false
	case isDigit(c):
		return l.scanNumber(pos), true
	case c == '.' && isDigit(l.peek2()):
		return l.scanNumber(pos), true
	case c == '.':
		return l.scanDotted(pos), true
	case isLetter(c):
		start := l.off
		for l.off < len(l.src) && isIdent(l.peek()) {
			l.advance()
		}
		return Token{Kind: IDENT, Text: strings.ToLower(l.src[start:l.off]), Pos: pos}, true
	case c == '\'' || c == '"':
		return l.scanString(pos), true
	}
	l.advance()
	two := func(k Kind) Token { l.advance(); return Token{Kind: k, Pos: pos} }
	switch c {
	case '(':
		return Token{Kind: LPAREN, Pos: pos}, true
	case ')':
		return Token{Kind: RPAREN, Pos: pos}, true
	case ',':
		return Token{Kind: COMMA, Pos: pos}, true
	case ';':
		return Token{Kind: SEMI, Pos: pos}, true
	case '%':
		return Token{Kind: PCT, Pos: pos}, true
	case ':':
		if l.peek() == ':' {
			return two(DCOLON), true
		}
		return Token{Kind: COLON, Pos: pos}, true
	case '=':
		switch l.peek() {
		case '=':
			return two(EQ), true
		case '>':
			return two(ARROW), true
		}
		return Token{Kind: ASSIGN, Pos: pos}, true
	case '+':
		return Token{Kind: PLUS, Pos: pos}, true
	case '-':
		return Token{Kind: MINUS, Pos: pos}, true
	case '*':
		if l.peek() == '*' {
			return two(POW), true
		}
		return Token{Kind: STAR, Pos: pos}, true
	case '/':
		switch l.peek() {
		case '/':
			return two(CONCAT), true
		case '=':
			return two(NE), true
		}
		return Token{Kind: SLASH, Pos: pos}, true
	case '<':
		if l.peek() == '=' {
			return two(LE), true
		}
		return Token{Kind: LT, Pos: pos}, true
	case '>':
		if l.peek() == '=' {
			return two(GE), true
		}
		return Token{Kind: GT, Pos: pos}, true
	}
	l.rep.Errorf("lex", pos, "unexpected character %q", string(c))
	return Token{}, false
}

// scanNumber scans integer and real literals: 123, 1.5, .5, 1., 1e10,
// 1.5e-3, 2.5d0. A trailing E/D exponent marks the literal REAL.
func (l *Lexer) scanNumber(pos source.Pos) Token {
	start := l.off
	isReal := false
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.off < len(l.src) && l.peek() == '.' {
		// Don't treat "1." in "1..and." or a dotted operator like
		// "1.eq.2" as part of the number: a '.' followed by a letter
		// begins a dotted operator unless it is an exponent letter
		// followed by digits/sign (e.g. "1.e5").
		next := l.peek2()
		isOpStart := isLetter(next) && !l.isExponentAt(l.off+1)
		if !isOpStart {
			isReal = true
			l.advance() // '.'
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	if l.off < len(l.src) && l.isExponentAt(l.off) {
		isReal = true
		l.advance() // e/d
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	text := l.src[start:l.off]
	if isReal {
		return Token{Kind: REAL, Text: text, Pos: pos}
	}
	return Token{Kind: INT, Text: text, Pos: pos}
}

// isExponentAt reports whether the byte at offset i begins a valid
// exponent part: [eEdD] [+-]? digit.
func (l *Lexer) isExponentAt(i int) bool {
	if i >= len(l.src) {
		return false
	}
	c := l.src[i]
	if c != 'e' && c != 'E' && c != 'd' && c != 'D' {
		return false
	}
	j := i + 1
	if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
		j++
	}
	return j < len(l.src) && isDigit(l.src[j])
}

var dottedOps = map[string]Kind{
	"and": AND, "or": OR, "not": NOT, "eqv": EQV, "neqv": NEQV,
	"eq": EQ, "ne": NE, "lt": LT, "le": LE, "gt": GT, "ge": GE,
	"true": TRUE, "false": FALSE,
}

func (l *Lexer) scanDotted(pos source.Pos) Token {
	l.advance() // '.'
	start := l.off
	for l.off < len(l.src) && isLetter(l.peek()) {
		l.advance()
	}
	word := strings.ToLower(l.src[start:l.off])
	if l.off < len(l.src) && l.peek() == '.' {
		l.advance()
		if k, ok := dottedOps[word]; ok {
			return Token{Kind: k, Pos: pos}
		}
	}
	l.rep.Errorf("lex", pos, "unknown dotted operator .%s.", word)
	return Token{Kind: IDENT, Text: word, Pos: pos}
}

func (l *Lexer) scanString(pos source.Pos) Token {
	quote := l.advance()
	var b strings.Builder
	for l.off < len(l.src) {
		c := l.advance()
		if c == quote {
			if l.off < len(l.src) && l.peek() == quote { // doubled quote
				l.advance()
				b.WriteByte(quote)
				continue
			}
			return Token{Kind: STRING, Text: b.String(), Pos: pos}
		}
		if c == '\n' {
			break
		}
		b.WriteByte(c)
	}
	l.rep.Errorf("lex", pos, "unterminated character literal")
	return Token{Kind: STRING, Text: b.String(), Pos: pos}
}
