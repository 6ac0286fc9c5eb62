package sqlagg

import (
	"strings"
	"sync"

	"newswire/internal/value"
)

// Expr is a node in the expression tree.
type Expr interface {
	// String renders the expression in (normalized) source form.
	String() string
	// Pos is the byte offset in the source of the expression's leftmost
	// token, grouping parentheses aside, for callers that type-check it.
	Pos() int
	exprNode()
}

// at is embedded in every node: its source offset and the Expr marker.
type at int

func (a at) Pos() int { return int(a) }
func (at) exprNode()  {}

// ColumnRef references an attribute of the child-table row being evaluated.
type ColumnRef struct {
	Name string
	at
}

func (c *ColumnRef) String() string { return c.Name }

// Literal is a constant value (number, string, or boolean).
type Literal struct {
	Val value.Value
	at
}

func (l *Literal) String() string {
	if s, ok := l.Val.AsString(); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return l.Val.String()
}

// Unary is a prefix operator application: "-x", "+x" or "NOT x".
type Unary struct {
	Op string // "-", "+" or "NOT"
	X  Expr
	at
}

func (u *Unary) String() string {
	if u.Op == "NOT" {
		return "NOT " + u.X.String()
	}
	return u.Op + u.X.String()
}

// Binary is an infix operator application.
type Binary struct {
	Op   string // arithmetic, comparison, AND, OR
	L, R Expr
	at
}

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// Call is a function application. Star marks COUNT(*).
type Call struct {
	Name string // upper-cased
	Args []Expr
	Star bool
	at

	// Resolved by the parser, so evaluation looks nothing up by name: fn
	// is a scalar function, nil for an aggregate, and slot indexes an
	// aggregate's aggregator in its program's evaluators.
	fn   func(args []value.Value) value.Value
	slot int
}

func (c *Call) String() string {
	if c.Star {
		return c.Name + "(*)"
	}
	return c.Name + "(" + joinExprs(c.Args) + ")"
}

func joinExprs(list []Expr) string {
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// In is "x [NOT] IN (a, b, ...)": whether x equals some list element.
type In struct {
	X    Expr
	List []Expr // at least one
	Not  bool
	at
}

func (n *In) String() string {
	return "(" + n.X.String() + notWord(n.Not) + " IN (" + joinExprs(n.List) + "))"
}

// Like is "x [NOT] LIKE 'pattern'": % matches any run of bytes, _ one byte.
type Like struct {
	X       Expr
	Pattern string
	Not     bool
	at
}

func (n *Like) String() string {
	lit := &Literal{Val: value.String(n.Pattern)}
	return "(" + n.X.String() + notWord(n.Not) + " LIKE " + lit.String() + ")"
}

// Between is "x [NOT] BETWEEN lo AND hi", inclusive at both ends.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
	at
}

func (n *Between) String() string {
	return "(" + n.X.String() + notWord(n.Not) + " BETWEEN " + n.Lo.String() + " AND " + n.Hi.String() + ")"
}

func notWord(not bool) string {
	if not {
		return " NOT"
	}
	return ""
}

// SelectItem is one output attribute of a program.
type SelectItem struct {
	Expr Expr
	Name string // output attribute name
}

// Program is a parsed aggregation program.
type Program struct {
	Items []SelectItem
	Where Expr // nil when absent
	src   string

	sites []*Call   // the select list's aggregate calls, by Call.slot
	pool  sync.Pool // of *evaluator, one per concurrent Eval
}

// Source returns the original program text.
func (p *Program) Source() string { return p.src }

// OutputNames returns the output attribute names in select-list order.
func (p *Program) OutputNames() []string {
	names := make([]string, len(p.Items))
	for i, it := range p.Items {
		names[i] = it.Name
	}
	return names
}

// String renders the program in normalized form.
func (p *Program) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range p.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		sb.WriteString(" AS ")
		sb.WriteString(it.Name)
	}
	if p.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(p.Where.String())
	}
	return sb.String()
}

// aggregateCalls appends to calls every aggregate call that evaluating e
// over a table reaches, which are all of them but those nested in another
// aggregate's arguments.
func aggregateCalls(e Expr, calls []*Call) []*Call {
	switch n := e.(type) {
	case *Unary:
		return aggregateCalls(n.X, calls)
	case *Binary:
		return aggregateCalls(n.R, aggregateCalls(n.L, calls))
	case *In:
		calls = aggregateCalls(n.X, calls)
		for _, x := range n.List {
			calls = aggregateCalls(x, calls)
		}
	case *Like:
		return aggregateCalls(n.X, calls)
	case *Between:
		return aggregateCalls(n.Hi, aggregateCalls(n.Lo, aggregateCalls(n.X, calls)))
	case *Call:
		if n.fn == nil {
			return append(calls, n)
		}
		for _, a := range n.Args {
			calls = aggregateCalls(a, calls)
		}
	}
	return calls
}
