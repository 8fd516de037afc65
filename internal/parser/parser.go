// Package parser implements a recursive-descent parser for the free-form
// Fortran 90 subset of the Fortran-90-Y compiler. It produces the AST
// consumed by the semantic lowering phase (§4.1).
//
// Fortran has no reserved words; the parser dispatches on the leading
// identifier of each statement and falls back to assignment parsing.
// Old-style labelled DO loops (DO 10 I=1,N ... 10 CONTINUE) are accepted
// and normalized to block DO loops.
package parser

import (
	"strconv"
	"strings"

	"f90y/internal/ast"
	"f90y/internal/lexer"
	"f90y/internal/source"
)

// Parser holds parse state over a token stream.
type Parser struct {
	toks []lexer.Token
	pos  int
	rep  *source.Reporter

	directives []*ast.Directive // !HPF$ directives collected in source order

	// Argument lists being gathered by parseIndexRest, innermost last.
	subs []ast.Subscript
	keys []string
}

// Parse lexes and parses one main program unit.
func Parse(file, src string) (*ast.Program, error) {
	var rep source.Reporter
	toks := lexer.Tokens(file, src, &rep)
	if rep.HasErrors() {
		return nil, rep.Err()
	}
	return ParseTokens(toks, &rep)
}

// ParseTokens parses a pre-lexed token stream (as produced by
// lexer.Tokens); callers that time the phases separately lex first and
// hand the tokens here.
func ParseTokens(toks []lexer.Token, rep *source.Reporter) (*ast.Program, error) {
	p := &Parser{toks: toks, rep: rep}
	prog := p.parseProgram()
	if rep.HasErrors() {
		return nil, rep.Err()
	}
	return prog, nil
}

func (p *Parser) cur() lexer.Token { return p.toks[p.pos] }
func (p *Parser) peek() lexer.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) at(k lexer.Kind) bool { return p.cur().Kind == k }

func (p *Parser) atKw(word string) bool {
	return p.cur().Kind == lexer.IDENT && p.cur().Text == word
}

func (p *Parser) accept(k lexer.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) acceptKw(word string) bool {
	if p.atKw(word) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k lexer.Kind) lexer.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %v, found %v", k, p.cur())
	return lexer.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) expectKw(word string) {
	if !p.acceptKw(word) {
		p.errorf("expected %q, found %v", word, p.cur())
	}
}

func (p *Parser) errorf(format string, args ...any) {
	p.rep.Errorf("parse", p.cur().Pos, format, args...)
	// Panic-free recovery: skip to end of statement.
	p.syncToStmtEnd()
}

func (p *Parser) syncToStmtEnd() {
	for !p.at(lexer.NEWLINE) && !p.at(lexer.SEMI) && !p.at(lexer.EOF) {
		p.next()
	}
}

// endOfStmt consumes the statement terminator (newline, semicolon, or EOF).
func (p *Parser) endOfStmt() {
	switch p.cur().Kind {
	case lexer.NEWLINE, lexer.SEMI:
		p.next()
	case lexer.EOF:
	default:
		p.errorf("unexpected %v at end of statement", p.cur())
		if p.at(lexer.NEWLINE) || p.at(lexer.SEMI) {
			p.next()
		}
	}
}

// skipNewlines consumes statement separators and any !HPF$ directive
// lines (directives are whole comment lines, so they only ever appear
// at statement boundaries).
func (p *Parser) skipNewlines() {
	for {
		switch {
		case p.at(lexer.NEWLINE) || p.at(lexer.SEMI):
			p.next()
		case p.at(lexer.DIRECTIVE):
			p.parseDirective()
		default:
			return
		}
	}
}

// ---- Program structure ----

var typeKeywords = map[string]ast.BaseKind{
	"integer": ast.Integer,
	"real":    ast.Real,
	"double":  ast.Double,
	"logical": ast.Logical,
}

func (p *Parser) parseProgram() *ast.Program {
	p.skipNewlines()
	prog := &ast.Program{Name: "main", Pos: p.cur().Pos}
	if p.acceptKw("program") {
		prog.Name = p.expect(lexer.IDENT).Text
		p.endOfStmt()
	}
	p.skipNewlines()

	// Specification part: declarations until first executable statement.
	for {
		p.skipNewlines()
		if p.at(lexer.EOF) {
			break
		}
		if p.acceptKw("implicit") {
			p.expectKw("none")
			p.endOfStmt()
			continue
		}
		if kind, ok := p.atTypeDecl(); ok {
			prog.Decls = append(prog.Decls, p.parseDecl(kind)...)
			continue
		}
		break
	}

	// Executable part.
	prog.Body = p.parseBlock("end program", "end")
	switch {
	case p.matchEnd("end program"):
		if p.at(lexer.IDENT) {
			p.next() // optional program name
		}
	case p.matchEnd("end"):
	default:
		p.errorf("expected END PROGRAM, found %v", p.cur())
	}
	p.endOfStmt()
	p.skipNewlines()
	if !p.at(lexer.EOF) {
		p.errorf("unexpected tokens after END PROGRAM")
	}
	prog.Directives = p.directives
	return prog
}

// atTypeDecl reports whether the current statement begins a type
// declaration, returning its elemental kind. It distinguishes the
// declaration "real x" from an assignment to a variable named "real" by
// looking at the following token.
func (p *Parser) atTypeDecl() (ast.BaseKind, bool) {
	if !p.at(lexer.IDENT) {
		return 0, false
	}
	kind, ok := typeKeywords[p.cur().Text]
	if !ok {
		return 0, false
	}
	switch p.peek().Kind {
	case lexer.ASSIGN, lexer.LPAREN:
		return 0, false // "real = ..." or "real(x) = ..." is not a decl here
	}
	return kind, true
}

// parseDecl parses one type declaration statement, which may declare
// several entities:
//
//	INTEGER K(128,64), L(128)
//	integer, array(64,64) :: A, B
//	real, dimension(64), parameter :: W = 0
//	double precision m, n
func (p *Parser) parseDecl(kind ast.BaseKind) []*ast.Decl {
	pos := p.cur().Pos
	p.next() // type keyword
	if kind == ast.Double {
		p.expectKw("precision")
	}

	var commonDims []ast.Extent
	isParam := false
	// Attribute list: ", dimension(...)", ", array(...)", ", parameter".
	for p.at(lexer.COMMA) {
		p.next()
		attr := p.expect(lexer.IDENT).Text
		switch attr {
		case "dimension", "array":
			p.expect(lexer.LPAREN)
			commonDims = p.parseExtents()
			p.expect(lexer.RPAREN)
		case "parameter":
			isParam = true
		default:
			p.errorf("unknown declaration attribute %q", attr)
		}
	}
	p.accept(lexer.DCOLON) // optional "::"

	var decls []*ast.Decl
	for {
		name := p.expect(lexer.IDENT).Text
		d := &ast.Decl{Name: name, Kind: kind, Dims: commonDims, Param: isParam, Pos: pos}
		if p.at(lexer.LPAREN) { // entity-specific dims: K(128,64)
			p.next()
			d.Dims = p.parseExtents()
			p.expect(lexer.RPAREN)
		}
		if p.accept(lexer.ASSIGN) {
			d.Init = p.parseExpr()
		}
		decls = append(decls, d)
		if !p.accept(lexer.COMMA) {
			break
		}
	}
	p.endOfStmt()
	return decls
}

func (p *Parser) parseExtents() []ast.Extent {
	var out []ast.Extent
	for {
		e := ast.Extent{Hi: p.parseExpr()}
		if p.accept(lexer.COLON) {
			e.Lo = e.Hi
			e.Hi = p.parseExpr()
		}
		out = append(out, e)
		if !p.accept(lexer.COMMA) {
			break
		}
	}
	return out
}

// ---- Statements ----

// matchEnd reports whether the statement at the cursor begins with the
// given canonical end-form ("end do", "end if", "end where", "end forall",
// "end program", "else", "elsewhere", "else if", "end") and consumes it if
// so. Fused spellings (ENDDO, ENDIF, ...) are normalized.
func (p *Parser) matchEnd(form string) bool {
	if !p.at(lexer.IDENT) {
		return false
	}
	save := p.pos
	w0, w1, two := strings.Cut(form, " ") // every form is one word or two
	first := p.cur().Text
	if two && len(first) == len(form)-1 && first[:len(w0)] == w0 && first[len(w0):] == w1 {
		p.next()
		return true
	}
	if first != w0 {
		return false
	}
	p.next()
	if two {
		if !p.atKw(w1) {
			p.pos = save
			return false
		}
		p.next()
	}
	// Plain "end" must not swallow "end do" etc.
	if form == "end" && p.at(lexer.IDENT) {
		switch p.cur().Text {
		case "do", "if", "where", "forall", "program":
			p.pos = save
			return false
		}
	}
	return true
}

// atEnd peeks matchEnd without consuming.
func (p *Parser) atEnd(form string) bool {
	save := p.pos
	ok := p.matchEnd(form)
	p.pos = save
	return ok
}

// parseBlock parses statements until one of the terminator forms appears
// at statement start. The terminator is left unconsumed.
func (p *Parser) parseBlock(terminators ...string) []ast.Stmt {
	var out []ast.Stmt
	for {
		p.skipNewlines()
		if p.at(lexer.EOF) {
			p.errorf("unexpected end of file, expected %q", terminators[0])
			return out
		}
		for _, t := range terminators {
			if p.atEnd(t) {
				return out
			}
		}
		pos := p.cur().Pos
		label, s := p.parseLabelledStmt()
		if label != "" {
			// A bare label may precede a statement that fails to parse
			// (s == nil); report at the label's own position then.
			at := pos
			if s != nil {
				at = s.Position()
			}
			p.rep.Errorf("parse", at, "unexpected statement label %s outside labelled DO", label)
		}
		if s != nil {
			out = append(out, s)
		}
	}
}

// parseLabelledStmt parses one statement, returning its numeric label (or
// "") and the statement.
func (p *Parser) parseLabelledStmt() (string, ast.Stmt) {
	label := ""
	if p.at(lexer.INT) {
		label = p.next().Text
	}
	return label, p.parseStmt()
}

func (p *Parser) parseStmt() ast.Stmt {
	pos := p.cur().Pos
	if !p.at(lexer.IDENT) {
		p.errorf("expected statement, found %v", p.cur())
		p.endOfStmt()
		return nil
	}
	switch p.cur().Text {
	case "if":
		return p.parseIf()
	case "do":
		return p.parseDo()
	case "where":
		// "where (m) x = y" single-statement vs block form — both start
		// with "where (", so disambiguation happens inside.
		return p.parseWhere()
	case "forall":
		return p.parseForall()
	case "call":
		return p.parseCall()
	case "print":
		return p.parsePrint()
	case "continue":
		p.next()
		p.endOfStmt()
		return &ast.Continue{Pos: pos}
	case "stop":
		p.next()
		if p.at(lexer.INT) || p.at(lexer.STRING) {
			p.next() // optional stop code, ignored
		}
		p.endOfStmt()
		return &ast.Stop{Pos: pos}
	}
	return p.parseAssign()
}

func (p *Parser) parseAssign() ast.Stmt {
	pos := p.cur().Pos
	lhs := p.parseDesignator()
	p.expect(lexer.ASSIGN)
	rhs := p.parseExpr()
	p.endOfStmt()
	return &ast.Assign{LHS: lhs, RHS: rhs, Pos: pos}
}

// parseDesignator parses an assignment target: NAME or NAME(subscripts).
func (p *Parser) parseDesignator() ast.Expr {
	tok := p.expect(lexer.IDENT)
	if !p.at(lexer.LPAREN) {
		return &ast.Ident{Name: tok.Text, Pos: tok.Pos}
	}
	return p.parseIndexRest(tok)
}

func (p *Parser) parseIf() ast.Stmt {
	pos := p.cur().Pos
	p.next() // "if"
	p.expect(lexer.LPAREN)
	cond := p.parseExpr()
	p.expect(lexer.RPAREN)
	if !p.acceptKw("then") {
		// Logical IF: "if (c) stmt".
		s := p.parseStmt()
		return &ast.If{Cond: cond, Then: []ast.Stmt{s}, Pos: pos}
	}
	p.endOfStmt()
	then := p.parseBlock("else if", "else", "end if")
	node := &ast.If{Cond: cond, Then: then, Pos: pos}
	switch {
	case p.matchEnd("else if"):
		// Desugar ELSE IF into a nested IF inside ELSE.
		p.expect(lexer.LPAREN)
		c2 := p.parseExpr()
		p.expect(lexer.RPAREN)
		p.expectKw("then")
		p.endOfStmt()
		inner := p.parseElseIfChain(c2)
		node.Else = []ast.Stmt{inner}
	case p.matchEnd("else"):
		p.endOfStmt()
		node.Else = p.parseBlock("end if")
		p.matchEnd("end if")
		p.endOfStmt()
	case p.matchEnd("end if"):
		p.endOfStmt()
	}
	return node
}

func (p *Parser) parseElseIfChain(cond ast.Expr) *ast.If {
	pos := p.cur().Pos
	then := p.parseBlock("else if", "else", "end if")
	node := &ast.If{Cond: cond, Then: then, Pos: pos}
	switch {
	case p.matchEnd("else if"):
		p.expect(lexer.LPAREN)
		c2 := p.parseExpr()
		p.expect(lexer.RPAREN)
		p.expectKw("then")
		p.endOfStmt()
		node.Else = []ast.Stmt{p.parseElseIfChain(c2)}
	case p.matchEnd("else"):
		p.endOfStmt()
		node.Else = p.parseBlock("end if")
		p.matchEnd("end if")
		p.endOfStmt()
	case p.matchEnd("end if"):
		p.endOfStmt()
	}
	return node
}

func (p *Parser) parseDo() ast.Stmt {
	pos := p.cur().Pos
	p.next() // "do"

	if p.atKw("while") {
		p.next()
		p.expect(lexer.LPAREN)
		cond := p.parseExpr()
		p.expect(lexer.RPAREN)
		p.endOfStmt()
		body := p.parseBlock("end do")
		p.matchEnd("end do")
		p.endOfStmt()
		return &ast.DoWhile{Cond: cond, Body: body, Pos: pos}
	}

	// Old-style labelled DO: "do 10 i = 1, n".
	label := ""
	if p.at(lexer.INT) {
		label = p.next().Text
	}

	v := p.expect(lexer.IDENT).Text
	p.expect(lexer.ASSIGN)
	from := p.parseExpr()
	p.expect(lexer.COMMA)
	to := p.parseExpr()
	var step ast.Expr
	if p.accept(lexer.COMMA) {
		step = p.parseExpr()
	}
	p.endOfStmt()

	loop := &ast.DoLoop{Var: v, From: from, To: to, Step: step, Pos: pos}
	if label == "" {
		loop.Body = p.parseBlock("end do")
		p.matchEnd("end do")
		p.endOfStmt()
		return loop
	}

	// Labelled body: parse statements until the statement carrying the
	// label; that statement (usually CONTINUE) is included in the body.
	for {
		p.skipNewlines()
		if p.at(lexer.EOF) {
			p.errorf("unexpected end of file inside DO %s", label)
			return loop
		}
		l, s := p.parseLabelledStmt()
		if s != nil {
			loop.Body = append(loop.Body, s)
		}
		if l == label {
			return loop
		}
		if l != "" {
			p.rep.Errorf("parse", pos, "unexpected label %s inside DO %s", l, label)
		}
	}
}

func (p *Parser) parseWhere() ast.Stmt {
	pos := p.cur().Pos
	p.next() // "where"
	p.expect(lexer.LPAREN)
	mask := p.parseExpr()
	p.expect(lexer.RPAREN)

	// Single-statement form: "where (m) a = b".
	if !p.at(lexer.NEWLINE) && !p.at(lexer.SEMI) && !p.at(lexer.EOF) {
		a, ok := p.parseAssign().(*ast.Assign)
		if !ok {
			return &ast.Where{Mask: mask, Pos: pos}
		}
		return &ast.Where{Mask: mask, Body: []*ast.Assign{a}, Pos: pos}
	}
	p.endOfStmt()

	node := &ast.Where{Mask: mask, Pos: pos}
	node.Body = p.parseWhereBody("elsewhere", "end where")
	if p.matchEnd("elsewhere") {
		p.endOfStmt()
		node.ElseBody = p.parseWhereBody("end where")
		if node.ElseBody == nil {
			node.ElseBody = []*ast.Assign{}
		}
	}
	p.matchEnd("end where")
	p.endOfStmt()
	return node
}

func (p *Parser) parseWhereBody(terminators ...string) []*ast.Assign {
	var out []*ast.Assign
	for _, s := range p.parseBlock(terminators...) {
		a, ok := s.(*ast.Assign)
		if !ok {
			p.rep.Errorf("parse", s.Position(), "only assignments may appear inside WHERE")
			continue
		}
		out = append(out, a)
	}
	return out
}

func (p *Parser) parseForall() ast.Stmt {
	pos := p.cur().Pos
	p.next() // "forall"
	p.expect(lexer.LPAREN)
	node := &ast.Forall{Pos: pos}
	for {
		// An index spec is "ident = lo:hi[:step]"; anything else is the
		// optional scalar mask expression, which must come last.
		if p.at(lexer.IDENT) && p.peek().Kind == lexer.ASSIGN {
			v := p.next().Text
			p.next() // '='
			lo := p.parseExpr()
			p.expect(lexer.COLON)
			hi := p.parseExpr()
			var step ast.Expr
			if p.accept(lexer.COLON) {
				step = p.parseExpr()
			}
			node.Indexes = append(node.Indexes, ast.ForallIndex{Var: v, Lo: lo, Hi: hi, Step: step})
		} else {
			node.Mask = p.parseExpr()
			break
		}
		if !p.accept(lexer.COMMA) {
			break
		}
	}
	p.expect(lexer.RPAREN)
	a, ok := p.parseAssign().(*ast.Assign)
	if !ok {
		return node
	}
	node.Assign = a
	return node
}

func (p *Parser) parseCall() ast.Stmt {
	pos := p.cur().Pos
	p.next() // "call"
	name := p.expect(lexer.IDENT).Text
	node := &ast.Call{Name: name, Pos: pos}
	if p.accept(lexer.LPAREN) {
		if !p.at(lexer.RPAREN) {
			for {
				node.Args = append(node.Args, p.parseExpr())
				if !p.accept(lexer.COMMA) {
					break
				}
			}
		}
		p.expect(lexer.RPAREN)
	}
	p.endOfStmt()
	return node
}

func (p *Parser) parsePrint() ast.Stmt {
	pos := p.cur().Pos
	p.next() // "print"
	p.expect(lexer.STAR)
	node := &ast.Print{Pos: pos}
	for p.accept(lexer.COMMA) {
		node.Items = append(node.Items, p.parseExpr())
	}
	p.endOfStmt()
	return node
}

// ---- Expressions ----
//
// Fortran 90 precedence, loosest to tightest:
//
//	.eqv. .neqv.  <  .or.  <  .and.  <  .not.  <  relational
//	  <  //  <  + - (binary and unary)  <  * /  <  **

func (p *Parser) parseExpr() ast.Expr { return p.parseEquiv() }

func (p *Parser) parseEquiv() ast.Expr {
	e := p.parseOr()
	for {
		pos := p.cur().Pos
		var op ast.BinOp
		switch p.cur().Kind {
		case lexer.EQV:
			op = ast.Eqv
		case lexer.NEQV:
			op = ast.Neqv
		default:
			return e
		}
		p.next()
		e = &ast.Binary{Op: op, L: e, R: p.parseOr(), Pos: pos}
	}
}

func (p *Parser) parseOr() ast.Expr {
	e := p.parseAnd()
	for p.at(lexer.OR) {
		pos := p.next().Pos
		e = &ast.Binary{Op: ast.Or, L: e, R: p.parseAnd(), Pos: pos}
	}
	return e
}

func (p *Parser) parseAnd() ast.Expr {
	e := p.parseNot()
	for p.at(lexer.AND) {
		pos := p.next().Pos
		e = &ast.Binary{Op: ast.And, L: e, R: p.parseNot(), Pos: pos}
	}
	return e
}

func (p *Parser) parseNot() ast.Expr {
	if p.at(lexer.NOT) {
		pos := p.next().Pos
		return &ast.Unary{Op: ast.Not, X: p.parseNot(), Pos: pos}
	}
	return p.parseRelational()
}

var relOps = map[lexer.Kind]ast.BinOp{
	lexer.EQ: ast.Eq, lexer.NE: ast.Ne,
	lexer.LT: ast.Lt, lexer.LE: ast.Le,
	lexer.GT: ast.Gt, lexer.GE: ast.Ge,
}

func (p *Parser) parseRelational() ast.Expr {
	e := p.parseAdditive()
	if op, ok := relOps[p.cur().Kind]; ok {
		pos := p.next().Pos
		return &ast.Binary{Op: op, L: e, R: p.parseAdditive(), Pos: pos}
	}
	return e
}

func (p *Parser) parseAdditive() ast.Expr {
	// Leading sign binds looser than * and /: -a*b is -(a*b).
	var lead *lexer.Token
	if p.at(lexer.MINUS) || p.at(lexer.PLUS) {
		t := p.next()
		lead = &t
	}
	e := p.parseMultiplicative()
	if lead != nil && lead.Kind == lexer.MINUS {
		e = &ast.Unary{Op: ast.Neg, X: e, Pos: lead.Pos}
	}
	for p.at(lexer.PLUS) || p.at(lexer.MINUS) {
		t := p.next()
		op := ast.Add
		if t.Kind == lexer.MINUS {
			op = ast.Sub
		}
		e = &ast.Binary{Op: op, L: e, R: p.parseMultiplicative(), Pos: t.Pos}
	}
	return e
}

func (p *Parser) parseMultiplicative() ast.Expr {
	e := p.parsePower()
	for p.at(lexer.STAR) || p.at(lexer.SLASH) {
		t := p.next()
		op := ast.Mul
		if t.Kind == lexer.SLASH {
			op = ast.Div
		}
		e = &ast.Binary{Op: op, L: e, R: p.parsePower(), Pos: t.Pos}
	}
	return e
}

func (p *Parser) parsePower() ast.Expr {
	e := p.parseUnary()
	if p.at(lexer.POW) {
		pos := p.next().Pos
		// ** is right-associative: a**b**c = a**(b**c). The exponent may
		// carry a sign: a**-2.
		var r ast.Expr
		if p.at(lexer.MINUS) {
			mpos := p.next().Pos
			r = &ast.Unary{Op: ast.Neg, X: p.parsePower(), Pos: mpos}
		} else {
			r = p.parsePower()
		}
		return &ast.Binary{Op: ast.Pow, L: e, R: r, Pos: pos}
	}
	return e
}

func (p *Parser) parseUnary() ast.Expr {
	if p.at(lexer.MINUS) {
		pos := p.next().Pos
		return &ast.Unary{Op: ast.Neg, X: p.parseUnary(), Pos: pos}
	}
	if p.at(lexer.PLUS) {
		p.next()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() ast.Expr {
	tok := p.cur()
	switch tok.Kind {
	case lexer.INT:
		p.next()
		v, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			p.errorf("bad integer literal %q", tok.Text)
		}
		return &ast.IntLit{Value: v, Pos: tok.Pos}
	case lexer.REAL:
		p.next()
		text := tok.Text
		isDouble := strings.ContainsAny(text, "dD")
		norm := strings.Map(func(r rune) rune {
			if r == 'd' || r == 'D' {
				return 'e'
			}
			return r
		}, text)
		v, err := strconv.ParseFloat(norm, 64)
		if err != nil {
			p.errorf("bad real literal %q", tok.Text)
		}
		return &ast.RealLit{Value: v, Double: isDouble, Text: text, Pos: tok.Pos}
	case lexer.TRUE:
		p.next()
		return &ast.LogicalLit{Value: true, Pos: tok.Pos}
	case lexer.FALSE:
		p.next()
		return &ast.LogicalLit{Value: false, Pos: tok.Pos}
	case lexer.STRING:
		p.next()
		return &ast.StringLit{Value: tok.Text, Pos: tok.Pos}
	case lexer.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(lexer.RPAREN)
		return e
	case lexer.IDENT:
		p.next()
		if p.at(lexer.LPAREN) {
			return p.parseIndexRest(tok)
		}
		return &ast.Ident{Name: tok.Text, Pos: tok.Pos}
	}
	p.errorf("expected expression, found %v", tok)
	p.next()
	return &ast.IntLit{Value: 0, Pos: tok.Pos}
}

// parseIndexRest parses "(subscript-list)" after NAME, producing an Index
// node. Each subscript is a single expression, a section triplet, or a
// keyword argument KEY=expr (for intrinsic calls).
func (p *Parser) parseIndexRest(name lexer.Token) ast.Expr {
	p.expect(lexer.LPAREN)
	node := &ast.Index{Name: name.Text, Pos: name.Pos}
	if p.accept(lexer.RPAREN) {
		return node
	}
	// The list gathers on the parser's stack (calls nest) and leaves as
	// two slices of exactly its length.
	base := len(p.subs)
	for {
		key := ""
		if p.at(lexer.IDENT) && p.peek().Kind == lexer.ASSIGN {
			key = p.next().Text
			p.next() // '='
		}
		sub := p.parseSubscript()
		p.subs, p.keys = append(p.subs, sub), append(p.keys, key)
		if !p.accept(lexer.COMMA) {
			break
		}
	}
	node.Subs = append([]ast.Subscript(nil), p.subs[base:]...)
	node.Keys = append([]string(nil), p.keys[base:]...)
	p.subs, p.keys = p.subs[:base], p.keys[:base]
	p.expect(lexer.RPAREN)
	return node
}

func (p *Parser) parseSubscript() ast.Subscript {
	var s ast.Subscript
	// Leading ':' means full-range lower bound omitted.
	if p.at(lexer.COLON) {
		p.next()
	} else {
		s.Lo = p.parseExpr()
		if !p.accept(lexer.COLON) {
			s.Single = true
			return s
		}
	}
	// After the first colon: optional Hi, optional :Step.
	if !p.at(lexer.COLON) && !p.at(lexer.COMMA) && !p.at(lexer.RPAREN) {
		s.Hi = p.parseExpr()
	}
	if p.accept(lexer.COLON) {
		s.Step = p.parseExpr()
	}
	return s
}
