package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// This file keeps the predicate parser query had before it became a
// type-check pass over sqlagg's AST: its own recursive descent over
// sqlagg's token stream, with IN, LIKE and BETWEEN promoted to keywords.
// It is the reference FuzzPredicateParserDifferential holds Parse to, and
// it builds the same typed nodes, so the two results compare by String
// and by Match. Lexer and parser are copied unchanged apart from names.

type oracleTokenKind uint8

const (
	oracleEOF oracleTokenKind = iota
	oracleIdent
	oracleNumber
	oracleString
	oracleOp
	oracleKeyword
)

func (k oracleTokenKind) String() string {
	switch k {
	case oracleEOF:
		return "end of input"
	case oracleIdent:
		return "identifier"
	case oracleNumber:
		return "number"
	case oracleString:
		return "string"
	case oracleOp:
		return "operator"
	case oracleKeyword:
		return "keyword"
	default:
		return "token"
	}
}

type oracleToken struct {
	Kind oracleTokenKind
	Text string // keywords upper-cased; idents as written; strings unquoted
	Pos  int    // byte offset in the source
}

var oracleKeywords = map[string]bool{
	"SELECT": true, "AS": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "TRUE": true, "FALSE": true,
	// The contextual keywords the old parser grafted on.
	"IN": true, "LIKE": true, "BETWEEN": true,
}

// oracleLex tokenizes src the way sqlagg's lexer did, terminating the
// stream with an oracleEOF token.
func oracleLex(src string) ([]oracleToken, error) {
	l := &oracleLexer{src: src}
	var toks []oracleToken
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == oracleEOF {
			return toks, nil
		}
	}
}

type oracleLexer struct {
	src string
	pos int
}

func (l *oracleLexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Src: l.src}
}

func (l *oracleLexer) next() (oracleToken, error) {
	for l.pos < len(l.src) && oracleIsSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return oracleToken{Kind: oracleEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case oracleIsIdentStart(c):
		for l.pos < len(l.src) && (oracleIsIdentStart(l.src[l.pos]) || oracleIsDigit(l.src[l.pos])) {
			l.pos++
		}
		word := l.src[start:l.pos]
		upper := strings.ToUpper(word)
		if oracleKeywords[upper] {
			return oracleToken{Kind: oracleKeyword, Text: upper, Pos: start}, nil
		}
		return oracleToken{Kind: oracleIdent, Text: word, Pos: start}, nil

	case oracleIsDigit(c):
		for l.pos < len(l.src) && oracleIsDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] == '.' {
			l.pos++
			if l.pos >= len(l.src) || !oracleIsDigit(l.src[l.pos]) {
				return oracleToken{}, l.errorf(start, "malformed number")
			}
			for l.pos < len(l.src) && oracleIsDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		return oracleToken{Kind: oracleNumber, Text: l.src[start:l.pos], Pos: start}, nil

	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return oracleToken{}, l.errorf(start, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return oracleToken{Kind: oracleString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}

	case strings.ContainsRune("(),*+-/%=", rune(c)):
		l.pos++
		return oracleToken{Kind: oracleOp, Text: string(c), Pos: start}, nil

	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
			return oracleToken{Kind: oracleOp, Text: l.src[start:l.pos], Pos: start}, nil
		}
		return oracleToken{Kind: oracleOp, Text: "<", Pos: start}, nil

	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return oracleToken{Kind: oracleOp, Text: ">=", Pos: start}, nil
		}
		return oracleToken{Kind: oracleOp, Text: ">", Pos: start}, nil

	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return oracleToken{Kind: oracleOp, Text: "!=", Pos: start}, nil
		}
		return oracleToken{}, l.errorf(start, "unexpected character %q", c)

	default:
		return oracleToken{}, l.errorf(start, "unexpected character %q", c)
	}
}

func oracleIsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func oracleIsIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }

func oracleIsDigit(c byte) bool { return c >= '0' && c <= '9' }

// oracleParse is the old Parse.
func oracleParse(src string) (*Predicate, error) {
	toks, err := oracleLex(src)
	if err != nil {
		return nil, err
	}
	p := &oracleParser{src: src, toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if tok := p.peek(); tok.Kind != oracleEOF {
		return nil, p.errorf(tok.Pos, "unexpected %s %q after expression", tok.Kind, tok.Text)
	}
	var sb strings.Builder
	e.append(&sb)
	return &Predicate{expr: e, src: sb.String()}, nil
}

type oracleParser struct {
	src  string
	toks []oracleToken
	i    int
}

func (p *oracleParser) peek() oracleToken { return p.toks[p.i] }

func (p *oracleParser) next() oracleToken {
	tok := p.toks[p.i]
	if tok.Kind != oracleEOF {
		p.i++
	}
	return tok
}

func (p *oracleParser) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Src: p.src}
}

// accept consumes the next token when it is the given keyword.
func (p *oracleParser) accept(keyword string) bool {
	if tok := p.peek(); tok.Kind == oracleKeyword && tok.Text == keyword {
		p.next()
		return true
	}
	return false
}

func (p *oracleParser) expect(keyword string) error {
	if !p.accept(keyword) {
		tok := p.peek()
		return p.errorf(tok.Pos, "expected %s, found %s %q", keyword, tok.Kind, tok.Text)
	}
	return nil
}

func (p *oracleParser) acceptOp(op string) bool {
	if tok := p.peek(); tok.Kind == oracleOp && tok.Text == op {
		p.next()
		return true
	}
	return false
}

func (p *oracleParser) parseOr() (expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binExpr{or: true, l: left, r: right}
	}
	return left, nil
}

func (p *oracleParser) parseAnd() (expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &binExpr{l: left, r: right}
	}
	return left, nil
}

func (p *oracleParser) parseNot() (expr, error) {
	if p.accept("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &notExpr{x: x}, nil
	}
	return p.parsePrimary()
}

func (p *oracleParser) parsePrimary() (expr, error) {
	tok := p.peek()
	switch {
	case tok.Kind == oracleOp && tok.Text == "(":
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.acceptOp(")") {
			t := p.peek()
			return nil, p.errorf(t.Pos, "expected ), found %s %q", t.Kind, t.Text)
		}
		return e, nil
	case tok.Kind == oracleKeyword && tok.Text == "TRUE":
		p.next()
		return boolLit(true), nil
	case tok.Kind == oracleKeyword && tok.Text == "FALSE":
		p.next()
		return boolLit(false), nil
	case tok.Kind == oracleIdent:
		return p.parseAtom()
	default:
		return nil, p.errorf(tok.Pos, "expected a field name, TRUE, FALSE, NOT, or (, found %s %q", tok.Kind, tok.Text)
	}
}

// parseAtom parses one field-rooted atom:
//
//	field cmpOp literal
//	field [NOT] IN ( literal {, literal} )
//	field [NOT] LIKE 'pattern'
//	field [NOT] BETWEEN literal AND literal
func (p *oracleParser) parseAtom() (expr, error) {
	tok := p.next()
	fi, ok := fields[strings.ToLower(tok.Text)]
	if !ok {
		return nil, p.errorf(tok.Pos, "unknown field %q (fields: %s)", tok.Text, strings.Join(Fields(), ", "))
	}

	neg := false
	if p.accept("NOT") {
		neg = true
		t := p.peek()
		if t.Kind != oracleKeyword || (t.Text != "IN" && t.Text != "LIKE" && t.Text != "BETWEEN") {
			return nil, p.errorf(t.Pos, "expected IN, LIKE, or BETWEEN after NOT, found %s %q", t.Kind, t.Text)
		}
	}

	switch {
	case p.accept("IN"):
		if !p.acceptOp("(") {
			t := p.peek()
			return nil, p.errorf(t.Pos, "expected ( after IN, found %s %q", t.Kind, t.Text)
		}
		var lits []literal
		for {
			lit, err := p.parseLiteral(fi)
			if err != nil {
				return nil, err
			}
			lits = append(lits, lit)
			if p.acceptOp(",") {
				continue
			}
			if p.acceptOp(")") {
				break
			}
			t := p.peek()
			return nil, p.errorf(t.Pos, "expected , or ) in IN list, found %s %q", t.Kind, t.Text)
		}
		return &inExpr{f: fi, lits: lits, neg: neg}, nil

	case p.accept("LIKE"):
		if fi.typ != ftString && fi.typ != ftStrings {
			t := p.peek()
			return nil, p.errorf(t.Pos, "LIKE requires a string field, %s is %s", fi.name, fi.typ)
		}
		t := p.next()
		if t.Kind != oracleString {
			return nil, p.errorf(t.Pos, "expected a string pattern after LIKE, found %s %q", t.Kind, t.Text)
		}
		return &likeExpr{f: fi, pattern: t.Text, neg: neg}, nil

	case p.accept("BETWEEN"):
		if fi.typ != ftInt && fi.typ != ftTime {
			t := p.peek()
			return nil, p.errorf(t.Pos, "BETWEEN requires an ordered field, %s is %s", fi.name, fi.typ)
		}
		lo, err := p.parseLiteral(fi)
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral(fi)
		if err != nil {
			return nil, err
		}
		return &betweenExpr{f: fi, lo: lo, hi: hi, neg: neg}, nil
	}

	t := p.next()
	if t.Kind != oracleOp {
		return nil, p.errorf(t.Pos, "expected a comparison operator after %s, found %s %q", fi.name, t.Kind, t.Text)
	}
	op := t.Text
	if op == "<>" {
		op = "!="
	}
	switch op {
	case "=", "!=":
	case "<", "<=", ">", ">=":
		if fi.typ != ftInt && fi.typ != ftTime {
			return nil, p.errorf(t.Pos, "ordered comparison %s requires an ordered field, %s is %s", op, fi.name, fi.typ)
		}
	default:
		return nil, p.errorf(t.Pos, "unsupported operator %q", op)
	}
	lit, err := p.parseLiteral(fi)
	if err != nil {
		return nil, err
	}
	return &cmpExpr{f: fi, op: op, lit: lit}, nil
}

// parseLiteral parses one literal and checks it against the field's type.
// Integer fields take integer numbers; string fields take string
// literals; published takes an RFC 3339 (or date-only) string literal.
func (p *oracleParser) parseLiteral(fi fieldInfo) (literal, error) {
	tok := p.next()
	switch fi.typ {
	case ftInt:
		neg := false
		if tok.Kind == oracleOp && (tok.Text == "-" || tok.Text == "+") {
			neg = tok.Text == "-"
			tok = p.next()
		}
		if tok.Kind != oracleNumber {
			return literal{}, p.errorf(tok.Pos, "%s requires an integer literal, found %s %q", fi.name, tok.Kind, tok.Text)
		}
		n, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return literal{}, p.errorf(tok.Pos, "%s requires an integer literal, %q is not one", fi.name, tok.Text)
		}
		if neg {
			n = -n
		}
		return literal{typ: ftInt, i: n}, nil

	case ftTime:
		if tok.Kind != oracleString {
			return literal{}, p.errorf(tok.Pos, "%s requires a timestamp string literal, found %s %q", fi.name, tok.Kind, tok.Text)
		}
		ts, err := parseTimeLiteral(tok.Text)
		if err != nil {
			return literal{}, p.errorf(tok.Pos, "%s: %v", fi.name, err)
		}
		return literal{typ: ftTime, t: ts}, nil

	default: // ftString, ftStrings
		if tok.Kind != oracleString {
			return literal{}, p.errorf(tok.Pos, "%s requires a string literal, found %s %q", fi.name, tok.Kind, tok.Text)
		}
		return literal{typ: ftString, s: tok.Text}, nil
	}
}
