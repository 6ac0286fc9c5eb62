package sqlagg

import (
	"fmt"
	"math"

	"newswire/internal/value"
)

// Eval runs the program against a child zone table and returns the parent
// summary row. Rows are attribute maps; the WHERE clause (if any) filters
// rows before aggregation. Output attributes whose aggregate produced no
// value (e.g. MIN over an empty or non-numeric column) are omitted from the
// result, so an empty zone contributes nothing upward.
//
// Scalar evaluation follows permissive SQL-ish semantics: a missing
// attribute, a type mismatch, or division by zero yields the invalid value,
// which is not truthy and is skipped by aggregators. Eval only returns an
// error for structural problems: a select item that references a column
// outside any aggregate (there is no GROUP BY, so bare columns have no
// meaning in a summary row).
//
// Eval is safe for concurrent use. It runs on an evaluator taken from the
// program's pool, so steady-state evaluation allocates only its output:
// the map and the lists and byte arrays that value.Strings and value.Bytes
// copy out of evaluator scratch. No Value that leaves Eval aliases that
// scratch, and none of the rows stays reachable from it afterwards.
func (p *Program) Eval(rows []value.Map) (value.Map, error) {
	ev, _ := p.pool.Get().(*evaluator)
	if ev == nil {
		ev = &evaluator{aggs: make([]aggregator, len(p.sites))}
		for i, c := range p.sites {
			ev.aggs[i] = aggregates[c.Name].new(c.Star)
		}
	}
	out, err := ev.run(p, rows)
	ev.release()
	p.pool.Put(ev)
	return out, err
}

// evaluator is the scratch of one Eval call. A Program pools its
// evaluators: one per goroutine evaluating it at a time.
type evaluator struct {
	// stack holds call arguments. A call pushes its arguments, hands them
	// to the function as one sub-slice and pops them, so the stack is only
	// as deep as the program's deepest nesting of calls.
	stack []value.Value
	rows  []value.Map  // the rows the WHERE clause kept
	aggs  []aggregator // one per aggregate call site, indexed by Call.slot
}

func (ev *evaluator) run(p *Program, rows []value.Map) (value.Map, error) {
	if p.Where != nil {
		for _, row := range rows {
			if ev.scalar(p.Where, row).Truthy() {
				ev.rows = append(ev.rows, row)
			}
		}
		rows = ev.rows
	}
	out := make(value.Map, len(p.Items))
	for _, item := range p.Items {
		v, err := ev.top(item.Expr, rows)
		if err != nil {
			return nil, fmt.Errorf("sqlagg: item %q: %w", item.Name, err)
		}
		if v.IsValid() {
			out[item.Name] = v
		}
	}
	return out, nil
}

// release readies the evaluator for its next Eval: every aggregator is
// reset, and no scratch slot keeps a row or a row's value reachable.
func (ev *evaluator) release() {
	clear(ev.stack[:cap(ev.stack)])
	ev.stack = ev.stack[:0]
	clear(ev.rows)
	ev.rows = ev.rows[:0]
	for _, a := range ev.aggs {
		a.reset()
	}
}

// push appends a call argument to the stack. Taking the value as a
// parameter makes the caller compute it before the stack is read:
// computing it may push, pop and grow the stack itself.
func (ev *evaluator) push(v value.Value) { ev.stack = append(ev.stack, v) }

// Predicate is a compiled boolean expression over a single row: a
// publisher's forwarding predicate over zone attributes (§8), or the
// syntax tree internal/query type-checks into a subscription predicate.
type Predicate struct {
	expr Expr
	src  string
}

// ParsePredicate compiles a bare boolean expression (no SELECT keyword).
func ParsePredicate(src string) (*Predicate, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", t.text)
	}
	if len(aggregateCalls(e, nil)) > 0 {
		return nil, &SyntaxError{Pos: 0, Msg: "aggregate function in predicate", Src: src}
	}
	return &Predicate{expr: e, src: src}, nil
}

// Eval evaluates the predicate against one row.
func (p *Predicate) Eval(row value.Map) bool {
	var ev evaluator
	return ev.scalar(p.expr, row).Truthy()
}

// Source returns the original predicate text.
func (p *Predicate) Source() string { return p.src }

// String renders the predicate in normalized form.
func (p *Predicate) String() string { return p.expr.String() }

// Expr returns the predicate's syntax tree.
func (p *Predicate) Expr() Expr { return p.expr }

// top evaluates a select-item expression over the whole table.
func (ev *evaluator) top(e Expr, rows []value.Map) (value.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil

	case *ColumnRef:
		return value.Invalid(), fmt.Errorf("column %q referenced outside an aggregate", n.Name)

	case *Unary:
		x, err := ev.top(n.X, rows)
		if err != nil {
			return value.Invalid(), err
		}
		return applyUnary(n.Op, x), nil

	case *Binary:
		l, err := ev.top(n.L, rows)
		if err != nil {
			return value.Invalid(), err
		}
		r, err := ev.top(n.R, rows)
		if err != nil {
			return value.Invalid(), err
		}
		return applyBinary(n.Op, l, r), nil

	case *Call:
		base := len(ev.stack)
		if n.fn == nil {
			agg := ev.aggs[n.slot]
			for _, row := range rows {
				for _, a := range n.Args {
					ev.push(ev.scalar(a, row))
				}
				agg.add(ev.stack[base:])
				ev.stack = ev.stack[:base]
			}
			return agg.result(), nil
		}
		for _, a := range n.Args {
			v, err := ev.top(a, rows)
			if err != nil {
				return value.Invalid(), err
			}
			ev.push(v)
		}
		v := n.fn(ev.stack[base:])
		ev.stack = ev.stack[:base]
		return v, nil

	case *In, *Like, *Between:
		var err error
		v := applyForm(n, func(x Expr) value.Value {
			v, xerr := ev.top(x, rows)
			if err == nil {
				err = xerr
			}
			return v
		})
		return v, err

	default:
		return value.Invalid(), fmt.Errorf("unknown expression node %T", e)
	}
}

// scalar evaluates an expression against a single row. It never fails;
// unusable inputs produce the invalid value.
func (ev *evaluator) scalar(e Expr, row value.Map) value.Value {
	switch n := e.(type) {
	case *Literal:
		return n.Val

	case *ColumnRef:
		return row[n.Name]

	case *Unary:
		return applyUnary(n.Op, ev.scalar(n.X, row))

	case *Binary:
		switch n.Op {
		case "AND":
			// Short-circuit.
			if !ev.scalar(n.L, row).Truthy() {
				return value.Bool(false)
			}
			return value.Bool(ev.scalar(n.R, row).Truthy())
		case "OR":
			if ev.scalar(n.L, row).Truthy() {
				return value.Bool(true)
			}
			return value.Bool(ev.scalar(n.R, row).Truthy())
		}
		return applyBinary(n.Op, ev.scalar(n.L, row), ev.scalar(n.R, row))

	case *Call:
		if n.fn == nil {
			// An aggregate in row context: rejected at parse time for
			// predicates, invalid in a program's WHERE clause.
			return value.Invalid()
		}
		base := len(ev.stack)
		for _, a := range n.Args {
			ev.push(ev.scalar(a, row))
		}
		v := n.fn(ev.stack[base:])
		ev.stack = ev.stack[:base]
		return v

	case *In, *Like, *Between:
		return applyForm(n, func(x Expr) value.Value { return ev.scalar(x, row) })

	default:
		return value.Invalid()
	}
}

// applyForm evaluates an IN, LIKE or BETWEEN node, reading its operands
// through eval. An operand that is missing or cannot be compared makes the
// result invalid, so the NOT forms of a missing attribute are not truthy
// either.
func applyForm(e Expr, eval func(Expr) value.Value) value.Value {
	switch n := e.(type) {
	case *In:
		// Every item is read, even after a hit, so top reports a bare
		// column wherever it sits in the list.
		x := eval(n.X)
		hit := false
		for _, item := range n.List {
			if x.Equal(eval(item)) {
				hit = true
			}
		}
		if !x.IsValid() {
			return value.Invalid()
		}
		return value.Bool(hit != n.Not)
	case *Like:
		s, ok := eval(n.X).AsString()
		if !ok {
			return value.Invalid()
		}
		return value.Bool(LikeMatch(n.Pattern, s) != n.Not)
	case *Between:
		x := eval(n.X)
		lo, err1 := x.Compare(eval(n.Lo))
		hi, err2 := x.Compare(eval(n.Hi))
		if err1 != nil || err2 != nil {
			return value.Invalid()
		}
		return value.Bool((lo >= 0 && hi <= 0) != n.Not)
	}
	return value.Invalid()
}

// LikeMatch implements SQL LIKE: % matches any run (including empty), _
// matches exactly one byte, everything else matches itself. Iterative
// backtracking over the last %, the classic wildcard algorithm — linear
// in practice, worst-case O(len(p)·len(s)).
func LikeMatch(pattern, s string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '%':
			star, mark = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func applyUnary(op string, x value.Value) value.Value {
	switch op {
	case "+":
		if !x.IsNumeric() {
			return value.Invalid()
		}
		return x
	case "-":
		switch x.Kind() {
		case value.KindInt:
			i, _ := x.AsInt()
			if i == math.MinInt64 {
				return value.Invalid()
			}
			return value.Int(-i)
		case value.KindFloat:
			f, _ := x.AsFloat()
			return value.Float(-f)
		default:
			return value.Invalid()
		}
	case "NOT":
		return value.Bool(!x.Truthy())
	default:
		return value.Invalid()
	}
}

func applyBinary(op string, l, r value.Value) value.Value {
	switch op {
	case "AND":
		return value.Bool(l.Truthy() && r.Truthy())
	case "OR":
		return value.Bool(l.Truthy() || r.Truthy())
	case "=":
		if !l.IsValid() || !r.IsValid() {
			return value.Invalid()
		}
		return value.Bool(l.Equal(r))
	case "!=":
		if !l.IsValid() || !r.IsValid() {
			return value.Invalid()
		}
		return value.Bool(!l.Equal(r))
	case "<", "<=", ">", ">=":
		c, err := l.Compare(r)
		if err != nil {
			return value.Invalid()
		}
		switch op {
		case "<":
			return value.Bool(c < 0)
		case "<=":
			return value.Bool(c <= 0)
		case ">":
			return value.Bool(c > 0)
		default:
			return value.Bool(c >= 0)
		}
	case "+", "-", "*":
		return arith(op, l, r)
	case "/":
		lf, ok1 := l.AsFloat()
		rf, ok2 := r.AsFloat()
		if !ok1 || !ok2 || rf == 0 {
			return value.Invalid()
		}
		return value.Float(lf / rf)
	case "%":
		li, ok1 := l.AsInt()
		ri, ok2 := r.AsInt()
		if !ok1 || !ok2 || ri == 0 {
			return value.Invalid()
		}
		return value.Int(li % ri)
	default:
		return value.Invalid()
	}
}

// arith implements +, -, * with int preservation when both sides are ints
// and the result fits in int64; a result that would overflow is computed
// in float instead of wrapping.
func arith(op string, l, r value.Value) value.Value {
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		a, _ := l.AsInt()
		b, _ := r.AsInt()
		if v, ok := intArith(op, a, b); ok {
			return value.Int(v)
		}
	}
	a, ok1 := l.AsFloat()
	b, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		// String concatenation with +.
		if op == "+" {
			ls, lok := l.AsString()
			rs, rok := r.AsString()
			if lok && rok {
				return value.String(ls + rs)
			}
		}
		return value.Invalid()
	}
	switch op {
	case "+":
		return value.Float(a + b)
	case "-":
		return value.Float(a - b)
	default:
		return value.Float(a * b)
	}
}

// intArith returns a op b for op +, - or *, and whether the exact result
// fits in int64. A product that fits divides back exactly; MinInt64 / -1
// is the one quotient that itself wraps.
func intArith(op string, a, b int64) (int64, bool) {
	switch op {
	case "+":
		s := a + b
		return s, (s > a) == (b > 0)
	case "-":
		s := a - b
		return s, (s < a) == (b > 0)
	}
	p := a * b
	return p, a == 0 || (p/a == b && !(a == -1 && b == math.MinInt64))
}
