package sqlagg

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"

	"newswire/internal/value"
)

// This file keeps the tree-walking evaluator that Program.Eval replaced, as
// the oracle the pooled evaluator is held to (oracle_diff_test.go). It
// walks the same syntax tree but shares no evaluation code with eval.go or
// funcs.go: it builds a fresh aggregator per call site per evaluation,
// allocates every argument slice, looks functions up by name and
// deduplicates with maps. Only the integer-overflow rule (a sum, +, - or *
// of ints that leaves int64 becomes a float) is newer than that evaluator,
// because it is a semantic rule both sides must share.

// oracleEval is the reference for Program.Eval.
func oracleEval(p *Program, rows []value.Map) (value.Map, error) {
	filtered := rows
	if p.Where != nil {
		filtered = make([]value.Map, 0, len(rows))
		for _, row := range rows {
			if oracleScalar(p.Where, row).Truthy() {
				filtered = append(filtered, row)
			}
		}
	}
	out := make(value.Map, len(p.Items))
	for _, item := range p.Items {
		v, err := oracleTop(item.Expr, filtered)
		if err != nil {
			return nil, fmt.Errorf("sqlagg: item %q: %w", item.Name, err)
		}
		if v.IsValid() {
			out[item.Name] = v
		}
	}
	return out, nil
}

func oracleTop(e Expr, rows []value.Map) (value.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *ColumnRef:
		return value.Invalid(), fmt.Errorf("column %q referenced outside an aggregate", n.Name)
	case *Unary:
		x, err := oracleTop(n.X, rows)
		if err != nil {
			return value.Invalid(), err
		}
		return oracleUnary(n.Op, x), nil
	case *Binary:
		l, err := oracleTop(n.L, rows)
		if err != nil {
			return value.Invalid(), err
		}
		r, err := oracleTop(n.R, rows)
		if err != nil {
			return value.Invalid(), err
		}
		return oracleBinary(n.Op, l, r), nil
	case *Call:
		if newAgg, ok := oracleAggregates[n.Name]; ok {
			agg := newAgg(n.Star)
			args := make([]value.Value, len(n.Args))
			for _, row := range rows {
				for i, a := range n.Args {
					args[i] = oracleScalar(a, row)
				}
				agg.add(args)
			}
			return agg.result(), nil
		}
		args := make([]value.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := oracleTop(a, rows)
			if err != nil {
				return value.Invalid(), err
			}
			args[i] = v
		}
		return oracleScalars[n.Name](args), nil
	case *In, *Like, *Between:
		var err error
		v := oracleForm(n, func(x Expr) value.Value {
			v, xerr := oracleTop(x, rows)
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

func oracleScalar(e Expr, row value.Map) value.Value {
	switch n := e.(type) {
	case *Literal:
		return n.Val
	case *ColumnRef:
		return row[n.Name]
	case *Unary:
		return oracleUnary(n.Op, oracleScalar(n.X, row))
	case *Binary:
		switch n.Op {
		case "AND":
			if !oracleScalar(n.L, row).Truthy() {
				return value.Bool(false)
			}
			return value.Bool(oracleScalar(n.R, row).Truthy())
		case "OR":
			if oracleScalar(n.L, row).Truthy() {
				return value.Bool(true)
			}
			return value.Bool(oracleScalar(n.R, row).Truthy())
		}
		return oracleBinary(n.Op, oracleScalar(n.L, row), oracleScalar(n.R, row))
	case *Call:
		fn, ok := oracleScalars[n.Name]
		if !ok {
			return value.Invalid()
		}
		args := make([]value.Value, len(n.Args))
		for i, a := range n.Args {
			args[i] = oracleScalar(a, row)
		}
		return fn(args)
	case *In, *Like, *Between:
		return oracleForm(n, func(x Expr) value.Value { return oracleScalar(x, row) })
	default:
		return value.Invalid()
	}
}

func oracleForm(e Expr, eval func(Expr) value.Value) value.Value {
	switch n := e.(type) {
	case *In:
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

func oracleUnary(op string, x value.Value) value.Value {
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

func oracleBinary(op string, l, r value.Value) value.Value {
	switch op {
	case "AND":
		return value.Bool(l.Truthy() && r.Truthy())
	case "OR":
		return value.Bool(l.Truthy() || r.Truthy())
	case "=", "!=":
		if !l.IsValid() || !r.IsValid() {
			return value.Invalid()
		}
		return value.Bool(l.Equal(r) == (op == "="))
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
		return oracleArith(op, l, r)
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

// oracleArith keeps int + - * exact while the result fits in int64, which
// it checks with math/big, and answers in float otherwise.
func oracleArith(op string, l, r value.Value) value.Value {
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		a, _ := l.AsInt()
		b, _ := r.AsInt()
		x, y, z := big.NewInt(a), big.NewInt(b), new(big.Int)
		switch op {
		case "+":
			z.Add(x, y)
		case "-":
			z.Sub(x, y)
		default:
			z.Mul(x, y)
		}
		if z.IsInt64() {
			return value.Int(z.Int64())
		}
	}
	a, ok1 := l.AsFloat()
	b, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
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

type oracleAggregator interface {
	add(args []value.Value)
	result() value.Value
}

var oracleAggregates = map[string]func(star bool) oracleAggregator{
	"COUNT":    func(star bool) oracleAggregator { return &oCount{star: star} },
	"MIN":      func(bool) oracleAggregator { return &oExtreme{wantLess: true} },
	"MAX":      func(bool) oracleAggregator { return &oExtreme{} },
	"SUM":      func(bool) oracleAggregator { return &oSum{} },
	"AVG":      func(bool) oracleAggregator { return &oAvg{} },
	"FIRST":    func(bool) oracleAggregator { return &oFirst{} },
	"BIT_OR":   func(bool) oracleAggregator { return &oBitOr{} },
	"BOOL_OR":  func(bool) oracleAggregator { return &oBool{or: true} },
	"BOOL_AND": func(bool) oracleAggregator { return &oBool{acc: true} },
	"MINK":     func(bool) oracleAggregator { return &oKBest{wantLess: true} },
	"MAXK":     func(bool) oracleAggregator { return &oKBest{} },
	"MINV":     func(bool) oracleAggregator { return &oArgBest{wantLess: true} },
	"MAXV":     func(bool) oracleAggregator { return &oArgBest{} },
	"REPS":     func(bool) oracleAggregator { return &oReps{} },
	"UNION":    func(bool) oracleAggregator { return &oUnion{seen: map[string]bool{}} },
}

type oCount struct {
	star bool
	n    int64
}

func (a *oCount) add(args []value.Value) {
	if a.star || (len(args) > 0 && args[0].IsValid()) {
		a.n++
	}
}
func (a *oCount) result() value.Value { return value.Int(a.n) }

type oExtreme struct {
	wantLess bool
	best     value.Value
}

func (a *oExtreme) add(args []value.Value) {
	v := args[0]
	if !v.IsValid() {
		return
	}
	if !a.best.IsValid() {
		a.best = v
		return
	}
	c, err := v.Compare(a.best)
	if err != nil {
		return
	}
	if (a.wantLess && c < 0) || (!a.wantLess && c > 0) {
		a.best = v
	}
}
func (a *oExtreme) result() value.Value { return a.best }

// oSum keeps an exact int sum while every input is an int and the sum fits
// in int64, and a float sum from the first input that is a float or would
// overflow.
type oSum struct {
	any     bool
	isFloat bool
	iSum    int64
	fSum    float64
}

func (a *oSum) add(args []value.Value) {
	v := args[0]
	if !v.IsNumeric() {
		return
	}
	a.any = true
	if i, ok := v.AsInt(); ok && v.Kind() == value.KindInt && !a.isFloat {
		if s := new(big.Int).Add(big.NewInt(a.iSum), big.NewInt(i)); s.IsInt64() {
			a.iSum = s.Int64()
			return
		}
	}
	if !a.isFloat {
		a.isFloat = true
		a.fSum = float64(a.iSum)
	}
	f, _ := v.AsFloat()
	a.fSum += f
}

func (a *oSum) result() value.Value {
	if !a.any {
		return value.Invalid()
	}
	if a.isFloat {
		return value.Float(a.fSum)
	}
	return value.Int(a.iSum)
}

type oAvg struct {
	sum float64
	n   int64
}

func (a *oAvg) add(args []value.Value) {
	if f, ok := args[0].AsFloat(); ok {
		a.sum += f
		a.n++
	}
}

func (a *oAvg) result() value.Value {
	if a.n == 0 {
		return value.Invalid()
	}
	return value.Float(a.sum / float64(a.n))
}

type oFirst struct{ v value.Value }

func (a *oFirst) add(args []value.Value) {
	if !a.v.IsValid() && args[0].IsValid() {
		a.v = args[0]
	}
}
func (a *oFirst) result() value.Value { return a.v }

type oBitOr struct {
	acc []byte
	any bool
}

func (a *oBitOr) add(args []value.Value) {
	b, ok := args[0].RawBytes()
	if !ok {
		return
	}
	a.any = true
	if len(b) > len(a.acc) {
		grown := make([]byte, len(b))
		copy(grown, a.acc)
		a.acc = grown
	}
	for i, x := range b {
		a.acc[i] |= x
	}
}

func (a *oBitOr) result() value.Value {
	if !a.any {
		return value.Invalid()
	}
	return value.Bytes(a.acc)
}

type oBool struct {
	or, acc, any bool
}

func (a *oBool) add(args []value.Value) {
	b, ok := args[0].AsBool()
	if !ok {
		return
	}
	if !a.any {
		a.any = true
		a.acc = b
		return
	}
	if a.or {
		a.acc = a.acc || b
	} else {
		a.acc = a.acc && b
	}
}

func (a *oBool) result() value.Value {
	if !a.any {
		return value.Invalid()
	}
	return value.Bool(a.acc)
}

type oKBest struct {
	wantLess bool
	k        int
	rows     []oKBestRow
}

type oKBestRow struct {
	order value.Value
	val   string
}

func (a *oKBest) add(args []value.Value) {
	if k, ok := args[0].AsInt(); ok && a.k == 0 && k > 0 {
		a.k = int(k)
	}
	order := args[1]
	val, ok := args[2].AsString()
	if !ok || !order.IsValid() {
		return
	}
	a.rows = append(a.rows, oKBestRow{order: order, val: val})
}

func (a *oKBest) result() value.Value {
	if a.k <= 0 || len(a.rows) == 0 {
		return value.Invalid()
	}
	rows := a.rows
	sort.SliceStable(rows, func(i, j int) bool {
		c, err := rows[i].order.Compare(rows[j].order)
		if err != nil || c == 0 {
			return rows[i].val < rows[j].val
		}
		if a.wantLess {
			return c < 0
		}
		return c > 0
	})
	n := min(a.k, len(rows))
	out := make([]string, n)
	for i := range out {
		out[i] = rows[i].val
	}
	return value.Strings(out)
}

type oReps struct {
	k    int
	rows []oRepsRow
}

type oRepsRow struct {
	order value.Value
	vals  []string
}

func (a *oReps) add(args []value.Value) {
	if k, ok := args[0].AsInt(); ok && a.k == 0 && k > 0 {
		a.k = int(k)
	}
	order := args[1]
	if !order.IsValid() {
		return
	}
	var vals []string
	switch args[2].Kind() {
	case value.KindString:
		s, _ := args[2].AsString()
		vals = []string{s}
	case value.KindStrings:
		vals, _ = args[2].AsStrings()
	default:
		return
	}
	if len(vals) == 0 {
		return
	}
	a.rows = append(a.rows, oRepsRow{order: order, vals: vals})
}

func (a *oReps) result() value.Value {
	if a.k <= 0 || len(a.rows) == 0 {
		return value.Invalid()
	}
	rows := a.rows
	slices.SortStableFunc(rows, func(x, y oRepsRow) int {
		if c, err := x.order.Compare(y.order); err == nil && c != 0 {
			return c
		}
		return strings.Compare(x.vals[0], y.vals[0])
	})
	// The evaluator this oracle keeps sized both by k, which panicked
	// (or tried to allocate the heap) for a k taken from a huge column.
	seen := make(map[string]bool)
	var out []string
	for depth := 0; len(out) < a.k; depth++ {
		advanced := false
		for _, r := range rows {
			if depth >= len(r.vals) {
				continue
			}
			advanced = true
			v := r.vals[depth]
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
				if len(out) == a.k {
					break
				}
			}
		}
		if !advanced {
			break
		}
	}
	if len(out) == 0 {
		return value.Invalid()
	}
	return value.Strings(out)
}

type oArgBest struct {
	wantLess           bool
	bestOrder, bestVal value.Value
}

func (a *oArgBest) add(args []value.Value) {
	order, val := args[0], args[1]
	if !order.IsValid() || !val.IsValid() {
		return
	}
	if !a.bestOrder.IsValid() {
		a.bestOrder, a.bestVal = order, val
		return
	}
	c, err := order.Compare(a.bestOrder)
	if err != nil {
		return
	}
	if c == 0 {
		if vc, err := val.Compare(a.bestVal); err == nil && vc < 0 {
			a.bestVal = val
		}
		return
	}
	if (a.wantLess && c < 0) || (!a.wantLess && c > 0) {
		a.bestOrder, a.bestVal = order, val
	}
}

func (a *oArgBest) result() value.Value { return a.bestVal }

type oUnion struct {
	seen map[string]bool
	any  bool
}

func (a *oUnion) add(args []value.Value) {
	switch args[0].Kind() {
	case value.KindStrings:
		ss, _ := args[0].AsStrings()
		a.any = true
		for _, s := range ss {
			a.seen[s] = true
		}
	case value.KindString:
		s, _ := args[0].AsString()
		a.any = true
		a.seen[s] = true
	}
}

func (a *oUnion) result() value.Value {
	if !a.any {
		return value.Invalid()
	}
	out := make([]string, 0, len(a.seen))
	for s := range a.seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return value.Strings(out)
}

var oracleScalars = map[string]func([]value.Value) value.Value{
	"HASH": func(args []value.Value) value.Value {
		h := fnv.New64a()
		var buf []byte
		for _, a := range args {
			buf = a.AppendBinary(buf[:0])
			h.Write(buf)
		}
		return value.Int(int64(h.Sum64() & math.MaxInt64))
	},
	"LEN": func(args []value.Value) value.Value {
		switch args[0].Kind() {
		case value.KindString:
			s, _ := args[0].AsString()
			return value.Int(int64(len(s)))
		case value.KindBytes:
			b, _ := args[0].AsBytes()
			return value.Int(int64(len(b)))
		case value.KindStrings:
			ss, _ := args[0].AsStrings()
			return value.Int(int64(len(ss)))
		default:
			return value.Invalid()
		}
	},
	"IF": func(args []value.Value) value.Value {
		if args[0].Truthy() {
			return args[1]
		}
		return args[2]
	},
	"COALESCE": func(args []value.Value) value.Value {
		for _, a := range args {
			if a.IsValid() {
				return a
			}
		}
		return value.Invalid()
	},
	"ABS": func(args []value.Value) value.Value {
		switch args[0].Kind() {
		case value.KindInt:
			i, _ := args[0].AsInt()
			if i == math.MinInt64 {
				return value.Invalid()
			}
			if i < 0 {
				i = -i
			}
			return value.Int(i)
		case value.KindFloat:
			f, _ := args[0].AsFloat()
			return value.Float(math.Abs(f))
		default:
			return value.Invalid()
		}
	},
	"BITCOUNT": func(args []value.Value) value.Value {
		b, ok := args[0].AsBytes()
		if !ok {
			return value.Invalid()
		}
		n := int64(0)
		for _, x := range b {
			for ; x != 0; x >>= 1 {
				n += int64(x & 1)
			}
		}
		return value.Int(n)
	},
	"CONCAT": func(args []value.Value) value.Value {
		var sb strings.Builder
		for _, a := range args {
			s, ok := a.AsString()
			if !ok {
				return value.Invalid()
			}
			sb.WriteString(s)
		}
		return value.String(sb.String())
	},
	"CONTAINS": func(args []value.Value) value.Value {
		ss, ok := args[0].AsStrings()
		if !ok {
			return value.Invalid()
		}
		want, ok := args[1].AsString()
		if !ok {
			return value.Invalid()
		}
		return value.Bool(slices.Contains(ss, want))
	},
}
