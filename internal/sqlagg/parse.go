package sqlagg

import (
	"strconv"
	"strings"

	"newswire/internal/value"
)

// Parse compiles an aggregation program. The grammar is
//
//	program    = "SELECT" item { "," item } [ "WHERE" expr ]
//	item       = expr [ "AS" ident ]
//	expr       = orExpr
//	orExpr     = andExpr { "OR" andExpr }
//	andExpr    = notExpr { "AND" notExpr }
//	notExpr    = "NOT" notExpr | cmpExpr
//	cmpExpr    = addExpr [ cmpOp addExpr
//	                     | [ "NOT" ] "IN" "(" expr { "," expr } ")"
//	                     | [ "NOT" ] "LIKE" string
//	                     | [ "NOT" ] "BETWEEN" addExpr "AND" addExpr ]
//	addExpr    = mulExpr { ("+"|"-") mulExpr }
//	mulExpr    = unary { ("*"|"/"|"%") unary }
//	unary      = ("-"|"+") unary | primary
//	primary    = number | string | TRUE | FALSE | ident
//	           | ident "(" [ "*" | expr { "," expr } ] ")"
//	           | "(" expr ")"
//
// A select item that is a bare column reference or a single function call
// may omit AS (the output name defaults to the column name or the
// lower-cased function name); any other expression requires AS.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse that panics on error, for statically known programs.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	src  string
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) advance()   { p.i++ }

func (p *parser) errorf(format string, args ...any) error {
	l := &lexer{src: p.src}
	return l.errorf(p.cur().pos, format, args...)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokKeyword || t.text != kw {
		return p.errorf("expected %s, found %s %q", kw, t.kind, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.cur()
	if t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	t := p.cur()
	if t.kind == tokOp && t.text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		t := p.cur()
		return p.errorf("expected %q, found %s %q", op, t.kind, t.text)
	}
	return nil
}

func (p *parser) parseProgram() (*Program, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	prog := &Program{src: p.src}
	seen := make(map[string]bool)
	for {
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		if seen[item.Name] {
			return nil, p.errorf("duplicate output attribute %q", item.Name)
		}
		seen[item.Name] = true
		prog.Items = append(prog.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		where, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		prog.Where = where
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", t.text)
	}
	for _, item := range prog.Items {
		prog.sites = aggregateCalls(item.Expr, prog.sites)
	}
	for i, c := range prog.sites {
		c.slot = i
	}
	return prog, nil
}

func (p *parser) parseItem() (SelectItem, error) {
	expr, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	if p.acceptKeyword("AS") {
		t := p.cur()
		if t.kind != tokIdent {
			return SelectItem{}, p.errorf("expected identifier after AS, found %q", t.text)
		}
		p.advance()
		return SelectItem{Expr: expr, Name: t.text}, nil
	}
	switch n := expr.(type) {
	case *ColumnRef:
		return SelectItem{Expr: expr, Name: n.Name}, nil
	case *Call:
		return SelectItem{Expr: expr, Name: strings.ToLower(n.Name)}, nil
	default:
		return SelectItem{}, p.errorf("select item %q requires AS <name>", expr.String())
	}
}

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right, at: at(left.Pos())}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right, at: at(left.Pos())}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	t := p.cur()
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x, at: at(t.pos)}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]bool{"=": true, "!=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokOp && cmpOps[t.text] {
		p.advance()
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		op := t.text
		if op == "<>" {
			op = "!="
		}
		return &Binary{Op: op, L: left, R: right, at: at(left.Pos())}, nil
	}
	not := p.acceptKeyword("NOT")
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		list, err := p.parseList()
		if err != nil {
			return nil, err
		}
		return &In{X: left, List: list, Not: not, at: at(left.Pos())}, nil
	case p.acceptKeyword("LIKE"):
		t := p.cur()
		if t.kind != tokString {
			return nil, p.errorf("expected a string pattern after LIKE, found %s %q", t.kind, t.text)
		}
		p.advance()
		return &Like{X: left, Pattern: t.text, Not: not, at: at(left.Pos())}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Between{X: left, Lo: lo, Hi: hi, Not: not, at: at(left.Pos())}, nil
	case not:
		t := p.cur()
		return nil, p.errorf("expected IN, LIKE, or BETWEEN after NOT, found %s %q", t.kind, t.text)
	}
	return left, nil
}

// parseList parses "expr { , expr } )", a call's arguments or an IN list,
// after its opening parenthesis.
func (p *parser) parseList() ([]Expr, error) {
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptOp(",") {
			return list, p.expectOp(")")
		}
	}
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.advance()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.text, L: left, R: right, at: at(left.Pos())}
	}
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp || (t.text != "*" && t.text != "/" && t.text != "%") {
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.text, L: left, R: right, at: at(left.Pos())}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if p.acceptOp("-") || p.acceptOp("+") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.text, X: x, at: at(t.pos)}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad float literal %q", t.text)
			}
			return &Literal{Val: value.Float(f), at: at(t.pos)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad int literal %q", t.text)
		}
		return &Literal{Val: value.Int(i), at: at(t.pos)}, nil

	case tokString:
		p.advance()
		return &Literal{Val: value.String(t.text), at: at(t.pos)}, nil

	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.advance()
			return &Literal{Val: value.Bool(true), at: at(t.pos)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: value.Bool(false), at: at(t.pos)}, nil
		}
		return nil, p.errorf("unexpected keyword %q", t.text)

	case tokIdent:
		p.advance()
		if !p.acceptOp("(") {
			return &ColumnRef{Name: t.text, at: at(t.pos)}, nil
		}
		name := strings.ToUpper(t.text)
		call := &Call{Name: name, at: at(t.pos)}
		if p.acceptOp("*") {
			call.Star = true
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return p.checkCall(call)
		}
		if !p.acceptOp(")") {
			var err error
			if call.Args, err = p.parseList(); err != nil {
				return nil, err
			}
		}
		return p.checkCall(call)

	case tokOp:
		if t.text == "(" {
			p.advance()
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
		return nil, p.errorf("unexpected %q", t.text)

	default:
		return nil, p.errorf("unexpected %s", t.kind)
	}
}

// checkCall validates function arity at parse time so bad programs fail
// before they are installed as zone aggregation functions.
func (p *parser) checkCall(c *Call) (Expr, error) {
	if agg, ok := aggregates[c.Name]; ok {
		if c.Star {
			if c.Name != "COUNT" {
				return nil, p.errorf("%s(*) is not valid; only COUNT(*)", c.Name)
			}
			return c, nil
		}
		if len(c.Args) < agg.minArgs || len(c.Args) > agg.maxArgs {
			return nil, p.errorf("%s takes %d..%d arguments, got %d",
				c.Name, agg.minArgs, agg.maxArgs, len(c.Args))
		}
		for _, a := range c.Args {
			if len(aggregateCalls(a, nil)) > 0 {
				return nil, p.errorf("nested aggregate in %s", c.Name)
			}
		}
		return c, nil
	}
	if fn, ok := scalarFuncs[c.Name]; ok {
		if c.Star {
			return nil, p.errorf("%s(*) is not valid", c.Name)
		}
		if len(c.Args) < fn.minArgs || (fn.maxArgs >= 0 && len(c.Args) > fn.maxArgs) {
			return nil, p.errorf("%s takes %d..%d arguments, got %d",
				c.Name, fn.minArgs, fn.maxArgs, len(c.Args))
		}
		c.fn = fn.call
		return c, nil
	}
	return nil, p.errorf("unknown function %s", c.Name)
}
