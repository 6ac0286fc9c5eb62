package sqlagg

import (
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"

	"newswire/internal/value"
)

// aggregator accumulates per-row argument values and produces the final
// aggregate. Implementations skip rows whose arguments are invalid or of an
// unusable kind — heterogeneous tables must not poison the whole summary.
type aggregator interface {
	add(args []value.Value)
	result() value.Value
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
	"UNION":    {minArgs: 1, maxArgs: 1, new: func(bool) aggregator { return &unionAgg{seen: map[string]bool{}} }},
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

// sumAgg implements SUM over numeric attributes, preserving int-ness when
// every input is an int.
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
		a.iSum += i
		return
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
	if len(b) > len(a.acc) {
		grown := make([]byte, len(b))
		copy(grown, a.acc)
		a.acc = grown
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

// kBestAgg implements MINK(k, order, val) / MAXK(k, order, val): the string
// values of the k rows with the smallest (largest) order attribute. This is
// the representative-election aggregate of §5: e.g.
// MINK(3, load, addr) AS reps. Ties break on the value string so election
// is deterministic across replicas.
type kBestAgg struct {
	wantLess bool
	k        int
	rows     []kBestRow
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
	n := a.k
	if n > len(rows) {
		n = len(rows)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = rows[i].val
	}
	return value.Strings(out)
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
}

type repsRow struct {
	order value.Value
	vals  []string
}

func (a *repsAgg) add(args []value.Value) {
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
		vals, _ = args[2].RawStrings() // only read: result copies what it picks
	default:
		return
	}
	if len(vals) == 0 {
		return
	}
	a.rows = append(a.rows, repsRow{order: order, vals: vals})
}

func (a *repsAgg) result() value.Value {
	if a.k <= 0 || len(a.rows) == 0 {
		return value.Invalid()
	}
	rows := a.rows
	slices.SortStableFunc(rows, func(x, y repsRow) int {
		if c, err := x.order.Compare(y.order); err == nil && c != 0 {
			return c
		}
		return strings.Compare(x.vals[0], y.vals[0])
	})
	seen := make(map[string]bool, a.k)
	out := make([]string, 0, a.k)
	// Round-robin across rows so redundancy spreads over child zones
	// rather than exhausting one child's rep list first.
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

// unionAgg implements UNION over string-list attributes: the deduplicated,
// sorted union of all child lists. Used to aggregate publisher rosters.
type unionAgg struct {
	seen map[string]bool
	any  bool
}

func (a *unionAgg) add(args []value.Value) {
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

func (a *unionAgg) result() value.Value {
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
// int64. It gives aggregation programs a deterministic pseudo-random order,
// e.g. for the random representative-election ablation:
// MINK(3, HASH(addr, epoch), addr).
func scalarHash(args []value.Value) value.Value {
	h := fnv.New64a()
	var buf []byte
	for _, a := range args {
		buf = a.AppendBinary(buf[:0])
		h.Write(buf)
	}
	return value.Int(int64(h.Sum64() & math.MaxInt64))
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
		ss, _ := args[0].AsStrings()
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
	ss, ok := args[0].AsStrings()
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
