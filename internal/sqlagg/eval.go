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
func (p *Program) Eval(rows []value.Map) (value.Map, error) {
	filtered := rows
	if p.Where != nil {
		filtered = make([]value.Map, 0, len(rows))
		for _, row := range rows {
			if evalScalar(p.Where, row).Truthy() {
				filtered = append(filtered, row)
			}
		}
	}
	out := make(value.Map, len(p.Items))
	for _, item := range p.Items {
		v, err := evalTop(item.Expr, filtered)
		if err != nil {
			return nil, fmt.Errorf("sqlagg: item %q: %w", item.Name, err)
		}
		if v.IsValid() {
			out[item.Name] = v
		}
	}
	return out, nil
}

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
	if containsAggregate(e) {
		return nil, &SyntaxError{Pos: 0, Msg: "aggregate function in predicate", Src: src}
	}
	return &Predicate{expr: e, src: src}, nil
}

// Eval evaluates the predicate against one row.
func (p *Predicate) Eval(row value.Map) bool {
	return evalScalar(p.expr, row).Truthy()
}

// Source returns the original predicate text.
func (p *Predicate) Source() string { return p.src }

// String renders the predicate in normalized form.
func (p *Predicate) String() string { return p.expr.String() }

// Expr returns the predicate's syntax tree.
func (p *Predicate) Expr() Expr { return p.expr }

// evalTop evaluates a select-item expression over the whole table.
func evalTop(e Expr, rows []value.Map) (value.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil

	case *ColumnRef:
		return value.Invalid(), fmt.Errorf("column %q referenced outside an aggregate", n.Name)

	case *Unary:
		x, err := evalTop(n.X, rows)
		if err != nil {
			return value.Invalid(), err
		}
		return applyUnary(n.Op, x), nil

	case *Binary:
		l, err := evalTop(n.L, rows)
		if err != nil {
			return value.Invalid(), err
		}
		r, err := evalTop(n.R, rows)
		if err != nil {
			return value.Invalid(), err
		}
		return applyBinary(n.Op, l, r), nil

	case *Call:
		if spec, ok := aggregates[n.Name]; ok {
			agg := spec.new(n.Star)
			args := make([]value.Value, len(n.Args))
			for _, row := range rows {
				for i, a := range n.Args {
					args[i] = evalScalar(a, row)
				}
				agg.add(args)
			}
			return agg.result(), nil
		}
		spec := scalarFuncs[n.Name] // existence checked at parse time
		args := make([]value.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := evalTop(a, rows)
			if err != nil {
				return value.Invalid(), err
			}
			args[i] = v
		}
		return spec.call(args), nil

	case *In, *Like, *Between:
		var err error
		v := applyForm(n, func(x Expr) value.Value {
			v, xerr := evalTop(x, rows)
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

// evalScalar evaluates an expression against a single row. It never fails;
// unusable inputs produce the invalid value.
func evalScalar(e Expr, row value.Map) value.Value {
	switch n := e.(type) {
	case *Literal:
		return n.Val

	case *ColumnRef:
		return row[n.Name]

	case *Unary:
		return applyUnary(n.Op, evalScalar(n.X, row))

	case *Binary:
		switch n.Op {
		case "AND":
			// Short-circuit.
			if !evalScalar(n.L, row).Truthy() {
				return value.Bool(false)
			}
			return value.Bool(evalScalar(n.R, row).Truthy())
		case "OR":
			if evalScalar(n.L, row).Truthy() {
				return value.Bool(true)
			}
			return value.Bool(evalScalar(n.R, row).Truthy())
		}
		return applyBinary(n.Op, evalScalar(n.L, row), evalScalar(n.R, row))

	case *Call:
		spec, ok := scalarFuncs[n.Name]
		if !ok {
			// Aggregate inside scalar context: rejected at parse time for
			// predicates; unreachable for well-formed programs.
			return value.Invalid()
		}
		args := make([]value.Value, len(n.Args))
		for i, a := range n.Args {
			args[i] = evalScalar(a, row)
		}
		return spec.call(args)

	case *In, *Like, *Between:
		return applyForm(n, func(x Expr) value.Value { return evalScalar(x, row) })

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
		// Every item is read, even after a hit, so evalTop reports a bare
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

// arith implements +, -, * with int preservation when both sides are ints.
func arith(op string, l, r value.Value) value.Value {
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		a, _ := l.AsInt()
		b, _ := r.AsInt()
		switch op {
		case "+":
			return value.Int(a + b)
		case "-":
			return value.Int(a - b)
		default:
			return value.Int(a * b)
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
