package sqlagg

import (
	"math"
	"slices"
	"sort"
	"strings"

	"newswire/internal/value"
)

// aggregator accumulates per-row argument values and produces the final
// aggregate. Implementations skip rows whose arguments are invalid or of an
// unusable kind — heterogeneous tables must not poison the whole summary.
//
// An aggregator lives in a pooled evaluator and serves one Eval after
// another. add's args are evaluator scratch, valid only during the call;
// result may not return a Value that aliases the aggregator's own buffers
// (value.Strings and value.Bytes copy); reset empties the aggregator for
// the next Eval, keeping the capacity of its buffers but no reference to
// the rows it read.
type aggregator interface {
	add(args []value.Value)
	result() value.Value
	reset()
}

type aggSpec struct {
	minArgs, maxArgs int
	new              func(star bool) aggregator
}

// aggregates is the aggregate-function registry.
var aggregates = map[string]aggSpec{
	"COUNT":    {minArgs: 1, maxArgs: 1, new: func(star bool) aggregator { return &countAgg{star: star} }},
	"MIN":      {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &extremeAgg{wantLess: true} }},
	"MAX":      {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &extremeAgg{wantLess: false} }},
	"SUM":      {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &sumAgg{} }},
	"AVG":      {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &avgAgg{} }},
	"FIRST":    {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &firstAgg{} }},
	"BIT_OR":   {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &bitOrAgg{} }},
	"BOOL_OR":  {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &boolAgg{or: true} }},
	"BOOL_AND": {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &boolAgg{or: false, acc: true} }},
	"MINK":     {minArgs: 3, maxArgs: 3, new: func(bool) aggregator { return &kBestAgg{wantLess: true} }},
	"MAXK":     {minArgs: 3, maxArgs: 3, new: func(bool) aggregator { return &kBestAgg{wantLess: false} }},
	"MINV":     {minArgs: 2, maxArgs: 2, new: func(bool) aggregator { return &argBestAgg{wantLess: true} }},
	"MAXV":     {minArgs: 2, maxArgs: 2, new: func(bool) aggregator { return &argBestAgg{wantLess: false} }},
	"REPS":     {minArgs: 3, maxArgs: 3, new: func(bool) aggregator { return &repsAgg{} }},
	"UNION":    {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &unionAgg{} }},
}

// countAgg implements COUNT(*) and COUNT(expr).
type countAgg struct {
	star bool
	n    int64
}

func (a *countAgg) add(args []value.Value) {
	if a.star || (len(args) > 0 && args[0].IsValid()) {
		a.n++
	}
}
func (a *countAgg) result() value.Value { return value.Int(a.n) }
func (a *countAgg) reset()              { a.n = 0 }

// extremeAgg implements MIN and MAX over any ordered kind.
type extremeAgg struct {
	wantLess bool
	best     value.Value
}

func (a *extremeAgg) add(args []value.Value) {
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
		return // unusable kind mix; skip
	}
	if (a.wantLess && c < 0) || (!a.wantLess && c > 0) {
		a.best = v
	}
}
func (a *extremeAgg) result() value.Value { return a.best }
func (a *extremeAgg) reset()              { a.best = value.Invalid() }

// sumAgg implements SUM over numeric attributes, preserving int-ness when
// every input is an int and the sum fits in int64: from the first float
// input, or the first int that would overflow the sum, it sums floats.
type sumAgg struct {
	any     bool
	isFloat bool
	iSum    int64
	fSum    float64
}

func (a *sumAgg) add(args []value.Value) {
	v := args[0]
	if !v.IsNumeric() {
		return
	}
	a.any = true
	if i, ok := v.AsInt(); ok && v.Kind() == value.KindInt && !a.isFloat {
		if s, ok := intArith("+", a.iSum, i); ok {
			a.iSum = s
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

func (a *sumAgg) result() value.Value {
	if !a.any {
		return value.Invalid()
	}
	if a.isFloat {
		return value.Float(a.fSum)
	}
	return value.Int(a.iSum)
}

func (a *sumAgg) reset() { *a = sumAgg{} }

// avgAgg implements AVG over numeric attributes.
type avgAgg struct {
	sum float64
	n   int64
}

func (a *avgAgg) add(args []value.Value) {
	if f, ok := args[0].AsFloat(); ok {
		a.sum += f
		a.n++
	}
}

func (a *avgAgg) result() value.Value {
	if a.n == 0 {
		return value.Invalid()
	}
	return value.Float(a.sum / float64(a.n))
}

func (a *avgAgg) reset() { *a = avgAgg{} }

// firstAgg implements FIRST: the first valid value in table order.
type firstAgg struct {
	v value.Value
}

func (a *firstAgg) add(args []value.Value) {
	if !a.v.IsValid() && args[0].IsValid() {
		a.v = args[0]
	}
}
func (a *firstAgg) result() value.Value { return a.v }
func (a *firstAgg) reset()              { a.v = value.Invalid() }

// bitOrAgg implements BIT_OR over bytes attributes — the aggregation the
// paper uses for Bloom filters and category masks ("aggregated into parent
// zones through a simple binary-or operation on the child arrays", §6).
// Shorter inputs are zero-extended to the longest seen.
type bitOrAgg struct {
	acc []byte
	any bool
}

func (a *bitOrAgg) add(args []value.Value) {
	b, ok := args[0].RawBytes()
	if !ok {
		return
	}
	a.any = true
	if n := len(a.acc); len(b) > n {
		// Capacity kept from an earlier Eval holds old bits: zero it.
		a.acc = slices.Grow(a.acc, len(b)-n)[:len(b)]
		clear(a.acc[n:])
	}
	for i, x := range b {
		a.acc[i] |= x
	}
}

func (a *bitOrAgg) result() value.Value {
	if !a.any {
		return value.Invalid()
	}
	return value.Bytes(a.acc)
}

func (a *bitOrAgg) reset() {
	a.acc = a.acc[:0]
	a.any = false
}

// boolAgg implements BOOL_OR / BOOL_AND.
type boolAgg struct {
	or  bool
	acc bool
	any bool
}

func (a *boolAgg) add(args []value.Value) {
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

func (a *boolAgg) result() value.Value {
	if !a.any {
		return value.Invalid()
	}
	return value.Bool(a.acc)
}

func (a *boolAgg) reset() { a.any = false }

// kBestAgg implements MINK(k, order, val) / MAXK(k, order, val): the string
// values of the k rows with the smallest (largest) order attribute. This is
// the representative-election aggregate of §5: e.g.
// MINK(3, load, addr) AS reps. Ties break on the value string so election
// is deterministic across replicas.
type kBestAgg struct {
	wantLess bool
	k        int
	rows     []kBestRow
	out      []string // result scratch, copied out by value.Strings
}

type kBestRow struct {
	order value.Value
	val   string
}

func (a *kBestAgg) add(args []value.Value) {
	if k, ok := args[0].AsInt(); ok && a.k == 0 && k > 0 {
		a.k = int(k)
	}
	order := args[1]
	val, ok := args[2].AsString()
	if !ok || !order.IsValid() {
		return
	}
	a.rows = append(a.rows, kBestRow{order: order, val: val})
}

func (a *kBestAgg) result() value.Value {
	if a.k <= 0 || len(a.rows) == 0 {
		return value.Invalid()
	}
	slices.SortStableFunc(a.rows, func(x, y kBestRow) int {
		c, err := x.order.Compare(y.order)
		if err != nil || c == 0 {
			return strings.Compare(x.val, y.val)
		}
		if !a.wantLess {
			c = -c
		}
		return c
	})
	for _, r := range a.rows[:min(a.k, len(a.rows))] {
		a.out = append(a.out, r.val)
	}
	return value.Strings(a.out)
}

func (a *kBestAgg) reset() {
	clear(a.rows)
	a.rows = a.rows[:0]
	clear(a.out)
	a.out = a.out[:0]
	a.k = 0
}

// repsAgg implements REPS(k, order, vals): the representative-election
// aggregate for multi-level hierarchies. vals may be a string (a leaf
// row's address) or a string list (a child zone's already-elected
// representatives); rows are visited in ascending order of the order
// attribute, their vals flattened and deduplicated, and the first k
// collected. This keeps parent zones stocked with k distinct contact
// addresses drawn from their best children — a plain MINK would collapse
// each child zone to a single address.
type repsAgg struct {
	k    int
	rows []repsRow
	out  []string // result scratch, copied out by value.Strings
}

// repsRow is one row's candidates: its string list, read in place, or a
// lone string (many is nil; a list is only kept when it is not empty).
type repsRow struct {
	order value.Value
	one   string
	many  []string
}

func (r *repsRow) len() int {
	if r.many == nil {
		return 1
	}
	return len(r.many)
}

func (r *repsRow) val(i int) string {
	if r.many == nil {
		return r.one
	}
	return r.many[i]
}

func (a *repsAgg) add(args []value.Value) {
	if k, ok := args[0].AsInt(); ok && a.k == 0 && k > 0 {
		a.k = int(k)
	}
	order := args[1]
	if !order.IsValid() {
		return
	}
	row := repsRow{order: order}
	switch args[2].Kind() {
	case value.KindString:
		row.one, _ = args[2].AsString()
	case value.KindStrings:
		row.many, _ = args[2].RawStrings() // only read: result copies what it picks
		if len(row.many) == 0 {
			return
		}
	default:
		return
	}
	a.rows = append(a.rows, row)
}

func (a *repsAgg) result() value.Value {
	if a.k <= 0 || len(a.rows) == 0 {
		return value.Invalid()
	}
	slices.SortStableFunc(a.rows, func(x, y repsRow) int {
		if c, err := x.order.Compare(y.order); err == nil && c != 0 {
			return c
		}
		return strings.Compare(x.val(0), y.val(0))
	})
	// Round-robin across rows so redundancy spreads over child zones
	// rather than exhausting one child's rep list first. The duplicate
	// check scans the at most k picks so far: k is a handful.
	for depth := 0; len(a.out) < a.k; depth++ {
		advanced := false
		for i := range a.rows {
			r := &a.rows[i]
			if depth >= r.len() {
				continue
			}
			advanced = true
			if v := r.val(depth); !slices.Contains(a.out, v) {
				a.out = append(a.out, v)
				if len(a.out) == a.k {
					break
				}
			}
		}
		if !advanced {
			break
		}
	}
	if len(a.out) == 0 {
		return value.Invalid()
	}
	return value.Strings(a.out)
}

func (a *repsAgg) reset() {
	clear(a.rows)
	a.rows = a.rows[:0]
	clear(a.out)
	a.out = a.out[:0]
	a.k = 0
}

// argBestAgg implements MINV(order, val) / MAXV(order, val): the val of the
// row with the smallest (largest) order attribute — SQL-less argmin/argmax.
// Zone aggregation uses it to pick the primary contact address:
// MINV(load, addr) AS addr. Ties break on the value itself (any ordered
// kind) so replicas elect identically.
type argBestAgg struct {
	wantLess  bool
	bestOrder value.Value
	bestVal   value.Value
}

func (a *argBestAgg) add(args []value.Value) {
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
		// Deterministic tie-break on the value.
		if vc, err := val.Compare(a.bestVal); err == nil && vc < 0 {
			a.bestVal = val
		}
		return
	}
	if (a.wantLess && c < 0) || (!a.wantLess && c > 0) {
		a.bestOrder, a.bestVal = order, val
	}
}

func (a *argBestAgg) result() value.Value { return a.bestVal }

func (a *argBestAgg) reset() { a.bestOrder, a.bestVal = value.Invalid(), value.Invalid() }

// unionAgg implements UNION over string-list attributes: the deduplicated,
// sorted union of all child lists. Used to aggregate publisher rosters.
type unionAgg struct {
	vals []string // every input string, sorted and deduplicated by result
	any  bool
}

func (a *unionAgg) add(args []value.Value) {
	switch args[0].Kind() {
	case value.KindStrings:
		ss, _ := args[0].RawStrings()
		a.any = true
		a.vals = append(a.vals, ss...)
	case value.KindString:
		s, _ := args[0].AsString()
		a.any = true
		a.vals = append(a.vals, s)
	}
}

func (a *unionAgg) result() value.Value {
	if !a.any {
		return value.Invalid()
	}
	slices.Sort(a.vals)
	a.vals = slices.Compact(a.vals) // zeroes the strings it drops
	return value.Strings(a.vals)
}

func (a *unionAgg) reset() {
	clear(a.vals)
	a.vals = a.vals[:0]
	a.any = false
}

// scalarSpec describes a scalar (per-row) function. maxArgs < 0 means
// variadic.
type scalarSpec struct {
	minArgs, maxArgs int
	call             func(args []value.Value) value.Value
}

// scalarFuncs is the scalar-function registry.
var scalarFuncs = map[string]scalarSpec{
	"HASH":     {minArgs: 1, maxArgs: -1, call: scalarHash},
	"LEN":      {minArgs: 1, maxArgs: 1, call: scalarLen},
	"IF":       {minArgs: 3, maxArgs: 3, call: scalarIf},
	"COALESCE": {minArgs: 1, maxArgs: -1, call: scalarCoalesce},
	"ABS":      {minArgs: 1, maxArgs: 1, call: scalarAbs},
	"BITCOUNT": {minArgs: 1, maxArgs: 1, call: scalarBitCount},
	"CONCAT":   {minArgs: 1, maxArgs: -1, call: scalarConcat},
	"CONTAINS": {minArgs: 2, maxArgs: 2, call: scalarContains},
}

// scalarHash hashes its arguments' canonical encodings to a non-negative
// int64 (64-bit FNV-1a over their concatenation). It gives aggregation
// programs a deterministic pseudo-random order, e.g. for the random
// representative-election ablation: MINK(3, HASH(addr, epoch), addr).
func scalarHash(args []value.Value) value.Value {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var buf [64]byte // encodings up to 64 bytes stay on the stack
	h := uint64(offset64)
	for _, a := range args {
		for _, c := range a.AppendBinary(buf[:0]) {
			h ^= uint64(c)
			h *= prime64
		}
	}
	return value.Int(int64(h & math.MaxInt64))
}

func scalarLen(args []value.Value) value.Value {
	switch args[0].Kind() {
	case value.KindString:
		s, _ := args[0].AsString()
		return value.Int(int64(len(s)))
	case value.KindBytes:
		b, _ := args[0].RawBytes()
		return value.Int(int64(len(b)))
	case value.KindStrings:
		ss, _ := args[0].RawStrings()
		return value.Int(int64(len(ss)))
	default:
		return value.Invalid()
	}
}

func scalarIf(args []value.Value) value.Value {
	if args[0].Truthy() {
		return args[1]
	}
	return args[2]
}

func scalarCoalesce(args []value.Value) value.Value {
	for _, a := range args {
		if a.IsValid() {
			return a
		}
	}
	return value.Invalid()
}

func scalarAbs(args []value.Value) value.Value {
	switch args[0].Kind() {
	case value.KindInt:
		i, _ := args[0].AsInt()
		if i < 0 {
			if i == math.MinInt64 {
				return value.Invalid()
			}
			i = -i
		}
		return value.Int(i)
	case value.KindFloat:
		f, _ := args[0].AsFloat()
		return value.Float(math.Abs(f))
	default:
		return value.Invalid()
	}
}

func scalarBitCount(args []value.Value) value.Value {
	b, ok := args[0].RawBytes()
	if !ok {
		return value.Invalid()
	}
	n := int64(0)
	for _, x := range b {
		for x != 0 {
			n += int64(x & 1)
			x >>= 1
		}
	}
	return value.Int(n)
}

func scalarConcat(args []value.Value) value.Value {
	var out string
	for _, a := range args {
		s, ok := a.AsString()
		if !ok {
			return value.Invalid()
		}
		out += s
	}
	return value.String(out)
}

// scalarContains tests membership of a string in a string-list attribute.
func scalarContains(args []value.Value) value.Value {
	ss, ok := args[0].RawStrings()
	if !ok {
		return value.Invalid()
	}
	want, ok := args[1].AsString()
	if !ok {
		return value.Invalid()
	}
	for _, s := range ss {
		if s == want {
			return value.Bool(true)
		}
	}
	return value.Bool(false)
}

// AggregateNames returns the sorted list of aggregate function names, for
// documentation and error messages.
func AggregateNames() []string {
	names := make([]string, 0, len(aggregates))
	for n := range aggregates {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScalarNames returns the sorted list of scalar function names.
func ScalarNames() []string {
	names := make([]string, 0, len(scalarFuncs))
	for n := range scalarFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
