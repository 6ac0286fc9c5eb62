package sqlagg

import (
	"strings"
	"testing"
	"testing/quick"

	"newswire/internal/value"
)

// table builds the child-zone table used across evaluation tests.
func table() []value.Map {
	return []value.Map{
		{"name": value.String("a"), "load": value.Float(0.9), "alive": value.Bool(true), "addr": value.String("a:1"), "subs": value.Bytes([]byte{0b0001})},
		{"name": value.String("b"), "load": value.Float(0.2), "alive": value.Bool(true), "addr": value.String("b:1"), "subs": value.Bytes([]byte{0b0010})},
		{"name": value.String("c"), "load": value.Float(0.5), "alive": value.Bool(false), "addr": value.String("c:1"), "subs": value.Bytes([]byte{0b0100})},
		{"name": value.String("d"), "load": value.Float(0.1), "alive": value.Bool(true), "addr": value.String("d:1")},
	}
}

func evalOne(t *testing.T, src string, rows []value.Map) value.Value {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	out, err := p.Eval(rows)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	if len(p.Items) != 1 {
		t.Fatalf("evalOne needs exactly one select item")
	}
	return out[p.Items[0].Name]
}

func TestCountStar(t *testing.T) {
	v := evalOne(t, "SELECT COUNT(*)", table())
	if n, _ := v.AsInt(); n != 4 {
		t.Fatalf("COUNT(*) = %v, want 4", v)
	}
}

func TestCountColumnSkipsMissing(t *testing.T) {
	// Row d has no subs attribute.
	v := evalOne(t, "SELECT COUNT(subs)", table())
	if n, _ := v.AsInt(); n != 3 {
		t.Fatalf("COUNT(subs) = %v, want 3", v)
	}
}

func TestMinMax(t *testing.T) {
	if v := evalOne(t, "SELECT MIN(load) AS m", table()); !v.Equal(value.Float(0.1)) {
		t.Fatalf("MIN(load) = %v", v)
	}
	if v := evalOne(t, "SELECT MAX(load) AS m", table()); !v.Equal(value.Float(0.9)) {
		t.Fatalf("MAX(load) = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(name) AS m", table()); !v.Equal(value.String("a")) {
		t.Fatalf("MIN(name) = %v", v)
	}
}

func TestSumPreservesInt(t *testing.T) {
	rows := []value.Map{{"x": value.Int(2)}, {"x": value.Int(3)}}
	v := evalOne(t, "SELECT SUM(x) AS s", rows)
	if v.Kind() != value.KindInt {
		t.Fatalf("SUM over ints has kind %v, want int", v.Kind())
	}
	if n, _ := v.AsInt(); n != 5 {
		t.Fatalf("SUM = %v, want 5", v)
	}
	rows = append(rows, value.Map{"x": value.Float(0.5)})
	v = evalOne(t, "SELECT SUM(x) AS s", rows)
	if v.Kind() != value.KindFloat {
		t.Fatalf("mixed SUM has kind %v, want float", v.Kind())
	}
	if f, _ := v.AsFloat(); f != 5.5 {
		t.Fatalf("SUM = %v, want 5.5", v)
	}
}

func TestAvg(t *testing.T) {
	rows := []value.Map{{"x": value.Int(1)}, {"x": value.Int(3)}}
	v := evalOne(t, "SELECT AVG(x) AS a", rows)
	if f, _ := v.AsFloat(); f != 2 {
		t.Fatalf("AVG = %v, want 2", v)
	}
}

func TestAggregatesOverEmptyTableOmitted(t *testing.T) {
	p := MustParse("SELECT MIN(load) AS m, COUNT(*) AS n, BIT_OR(subs) AS s")
	out, err := p.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["m"]; ok {
		t.Error("MIN over empty table should be omitted")
	}
	if _, ok := out["s"]; ok {
		t.Error("BIT_OR over empty table should be omitted")
	}
	if n, _ := out["n"].AsInt(); n != 0 {
		t.Errorf("COUNT(*) over empty table = %v, want 0", out["n"])
	}
}

func TestFirst(t *testing.T) {
	v := evalOne(t, "SELECT FIRST(name) AS f", table())
	if s, _ := v.AsString(); s != "a" {
		t.Fatalf("FIRST(name) = %v", v)
	}
	// First valid, skipping rows without the attribute.
	rows := []value.Map{{}, {"x": value.Int(7)}}
	v = evalOne(t, "SELECT FIRST(x) AS f", rows)
	if n, _ := v.AsInt(); n != 7 {
		t.Fatalf("FIRST skipping invalid = %v", v)
	}
}

func TestBitOr(t *testing.T) {
	v := evalOne(t, "SELECT BIT_OR(subs) AS s", table())
	b, ok := v.AsBytes()
	if !ok || len(b) != 1 || b[0] != 0b0111 {
		t.Fatalf("BIT_OR(subs) = %v", v)
	}
}

func TestBitOrDifferentLengths(t *testing.T) {
	rows := []value.Map{
		{"m": value.Bytes([]byte{0x01})},
		{"m": value.Bytes([]byte{0x00, 0x80})},
	}
	v := evalOne(t, "SELECT BIT_OR(m) AS s", rows)
	b, _ := v.AsBytes()
	if len(b) != 2 || b[0] != 0x01 || b[1] != 0x80 {
		t.Fatalf("BIT_OR mixed lengths = %v", b)
	}
}

func TestBoolOrAnd(t *testing.T) {
	if v := evalOne(t, "SELECT BOOL_OR(alive) AS b", table()); !v.Equal(value.Bool(true)) {
		t.Fatalf("BOOL_OR = %v", v)
	}
	if v := evalOne(t, "SELECT BOOL_AND(alive) AS b", table()); !v.Equal(value.Bool(false)) {
		t.Fatalf("BOOL_AND = %v", v)
	}
}

func TestMinK(t *testing.T) {
	v := evalOne(t, "SELECT MINK(2, load, addr) AS reps", table())
	reps, ok := v.AsStrings()
	if !ok || len(reps) != 2 {
		t.Fatalf("MINK = %v", v)
	}
	// d (0.1) then b (0.2).
	if reps[0] != "d:1" || reps[1] != "b:1" {
		t.Fatalf("MINK reps = %v, want [d:1 b:1]", reps)
	}
}

func TestMinKWithWhere(t *testing.T) {
	// Representative election excluding dead nodes (the paper's combined
	// availability+load election, §5).
	p := MustParse("SELECT MINK(3, load, addr) AS reps WHERE alive")
	out, err := p.Eval(table())
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := out["reps"].AsStrings()
	for _, r := range reps {
		if r == "c:1" {
			t.Fatal("dead node elected as representative")
		}
	}
	if len(reps) != 3 {
		t.Fatalf("reps = %v, want 3 alive nodes", reps)
	}
}

func TestMaxK(t *testing.T) {
	v := evalOne(t, "SELECT MAXK(1, load, addr) AS reps", table())
	reps, _ := v.AsStrings()
	if len(reps) != 1 || reps[0] != "a:1" {
		t.Fatalf("MAXK = %v, want [a:1]", reps)
	}
}

func TestMinKFewerRowsThanK(t *testing.T) {
	v := evalOne(t, "SELECT MINK(10, load, addr) AS reps", table())
	reps, _ := v.AsStrings()
	if len(reps) != 4 {
		t.Fatalf("MINK with k>rows = %v, want all 4", reps)
	}
}

func TestMinKDeterministicTieBreak(t *testing.T) {
	rows := []value.Map{
		{"load": value.Int(1), "addr": value.String("z")},
		{"load": value.Int(1), "addr": value.String("a")},
		{"load": value.Int(1), "addr": value.String("m")},
	}
	v := evalOne(t, "SELECT MINK(2, load, addr) AS reps", rows)
	reps, _ := v.AsStrings()
	if reps[0] != "a" || reps[1] != "m" {
		t.Fatalf("tie-break order = %v, want [a m]", reps)
	}
}

func TestUnion(t *testing.T) {
	rows := []value.Map{
		{"pubs": value.Strings([]string{"reuters", "ap"})},
		{"pubs": value.Strings([]string{"ap", "slashdot"})},
		{"pubs": value.String("wired")},
	}
	v := evalOne(t, "SELECT UNION(pubs) AS pubs", rows)
	got, _ := v.AsStrings()
	want := []string{"ap", "reuters", "slashdot", "wired"}
	if len(got) != len(want) {
		t.Fatalf("UNION = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UNION = %v, want %v", got, want)
		}
	}
}

func TestWhereFilters(t *testing.T) {
	v := evalOne(t, "SELECT COUNT(*) AS n WHERE alive", table())
	if n, _ := v.AsInt(); n != 3 {
		t.Fatalf("COUNT alive = %v, want 3", v)
	}
	v = evalOne(t, "SELECT COUNT(*) AS n WHERE load < 0.3", table())
	if n, _ := v.AsInt(); n != 2 {
		t.Fatalf("COUNT load<0.3 = %v, want 2", v)
	}
	v = evalOne(t, "SELECT COUNT(*) AS n WHERE name = 'a' OR name = 'b'", table())
	if n, _ := v.AsInt(); n != 2 {
		t.Fatalf("COUNT name in (a,b) = %v, want 2", v)
	}
	v = evalOne(t, "SELECT COUNT(*) AS n WHERE NOT alive", table())
	if n, _ := v.AsInt(); n != 1 {
		t.Fatalf("COUNT not alive = %v, want 1", v)
	}
}

func TestWhereMissingAttributeIsFalse(t *testing.T) {
	v := evalOne(t, "SELECT COUNT(*) AS n WHERE missing_attr > 5", table())
	if n, _ := v.AsInt(); n != 0 {
		t.Fatalf("missing attribute comparison matched %v rows, want 0", v)
	}
}

func TestArithmeticOnAggregates(t *testing.T) {
	v := evalOne(t, "SELECT SUM(load)/COUNT(*) AS mean", table())
	f, ok := v.AsFloat()
	if !ok {
		t.Fatalf("mean = %v", v)
	}
	want := (0.9 + 0.2 + 0.5 + 0.1) / 4
	if diff := f - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("mean = %v, want %v", f, want)
	}
}

func TestBareColumnErrors(t *testing.T) {
	p := MustParse("SELECT load AS l")
	if _, err := p.Eval(table()); err == nil {
		t.Fatal("bare column in select should fail at Eval")
	}
	p = MustParse("SELECT MIN(load) + load AS l")
	if _, err := p.Eval(table()); err == nil {
		t.Fatal("column outside aggregate should fail at Eval")
	}
}

func TestDivisionByZeroOmitted(t *testing.T) {
	p := MustParse("SELECT 1/0 AS x")
	out, err := p.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["x"]; ok {
		t.Fatal("division by zero should be omitted, not present")
	}
}

func TestModulo(t *testing.T) {
	v := evalOne(t, "SELECT 7 % 3 AS m", nil)
	if n, _ := v.AsInt(); n != 1 {
		t.Fatalf("7 %% 3 = %v", v)
	}
	p := MustParse("SELECT 7 % 0 AS m")
	out, _ := p.Eval(nil)
	if _, ok := out["m"]; ok {
		t.Fatal("modulo by zero should be omitted")
	}
}

func TestUnaryMinus(t *testing.T) {
	v := evalOne(t, "SELECT -MIN(x) AS m", []value.Map{{"x": value.Int(5)}})
	if n, _ := v.AsInt(); n != -5 {
		t.Fatalf("-MIN = %v", v)
	}
}

func TestStringConcatPlus(t *testing.T) {
	v := evalOne(t, "SELECT 'a' + 'b' AS s", nil)
	if s, _ := v.AsString(); s != "ab" {
		t.Fatalf("'a'+'b' = %v", v)
	}
}

func TestScalarFunctions(t *testing.T) {
	rows := []value.Map{{
		"s":    value.String("hello"),
		"b":    value.Bytes([]byte{0xFF, 0x01}),
		"list": value.Strings([]string{"x", "y"}),
	}}
	if v := evalOne(t, "SELECT MIN(LEN(s)) AS n", rows); !v.Equal(value.Int(5)) {
		t.Errorf("LEN(s) = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(LEN(b)) AS n", rows); !v.Equal(value.Int(2)) {
		t.Errorf("LEN(b) = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(LEN(list)) AS n", rows); !v.Equal(value.Int(2)) {
		t.Errorf("LEN(list) = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(BITCOUNT(b)) AS n", rows); !v.Equal(value.Int(9)) {
		t.Errorf("BITCOUNT = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(IF(TRUE, 1, 2)) AS n", rows); !v.Equal(value.Int(1)) {
		t.Errorf("IF = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(COALESCE(absent, s)) AS c", rows); !v.Equal(value.String("hello")) {
		t.Errorf("COALESCE = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(ABS(0 - 4)) AS a", rows); !v.Equal(value.Int(4)) {
		t.Errorf("ABS = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(CONCAT(s, '!')) AS c", rows); !v.Equal(value.String("hello!")) {
		t.Errorf("CONCAT = %v", v)
	}
	if v := evalOne(t, "SELECT BOOL_OR(CONTAINS(list, 'x')) AS c", rows); !v.Equal(value.Bool(true)) {
		t.Errorf("CONTAINS true = %v", v)
	}
	if v := evalOne(t, "SELECT BOOL_OR(CONTAINS(list, 'z')) AS c", rows); !v.Equal(value.Bool(false)) {
		t.Errorf("CONTAINS false = %v", v)
	}
}

func TestHashDeterministicAndNonNegative(t *testing.T) {
	rows := []value.Map{{"a": value.String("x")}}
	v1 := evalOne(t, "SELECT MIN(HASH(a)) AS h", rows)
	v2 := evalOne(t, "SELECT MIN(HASH(a)) AS h", rows)
	if !v1.Equal(v2) {
		t.Fatal("HASH not deterministic")
	}
	if n, _ := v1.AsInt(); n < 0 {
		t.Fatal("HASH produced negative value")
	}
	v3 := evalOne(t, "SELECT MIN(HASH(a, 1)) AS h", rows)
	if v1.Equal(v3) {
		t.Fatal("HASH insensitive to extra arguments")
	}
}

func TestPredicateEval(t *testing.T) {
	row := value.Map{
		"premium": value.Bool(true),
		"region":  value.String("asia"),
		"load":    value.Float(0.4),
	}
	tests := []struct {
		give string
		want bool
	}{
		{"premium", true},
		{"NOT premium", false},
		{"region = 'asia'", true},
		{"region != 'asia'", false},
		{"load < 0.5 AND premium", true},
		{"load > 0.5 OR region = 'asia'", true},
		{"missing", false},
		{"missing = 1", false},
	}
	for _, tt := range tests {
		pred, err := ParsePredicate(tt.give)
		if err != nil {
			t.Errorf("ParsePredicate(%q): %v", tt.give, err)
			continue
		}
		if got := pred.Eval(row); got != tt.want {
			t.Errorf("ParsePredicate(%q).Eval = %v, want %v", tt.give, got, tt.want)
		}
	}
	if _, err := ParsePredicate("bad syntax here("); err == nil {
		t.Error("bad predicate should error")
	}
}

func TestPredicateInLikeBetween(t *testing.T) {
	row := value.Map{
		"region": value.String("asia"),
		"load":   value.Float(0.4),
		"n":      value.Int(3),
	}
	tests := []struct {
		give string
		want bool
	}{
		{"n IN (1, 3, 5)", true},
		{"n IN (1.0, 3.0)", true}, // numeric equality across int and float
		{"n NOT IN (1, 3)", false},
		{"region IN ('europe', 'asia')", true},
		{"region NOT IN ('europe')", true},
		{"region LIKE 'as%'", true},
		{"region LIKE 'a_ia'", true},
		{"region NOT LIKE '%ia'", false},
		{"load BETWEEN 0.25 AND 0.5", true},
		{"load NOT BETWEEN 0.25 AND 0.5", false},
		{"n BETWEEN 3 AND 3", true},
		{"n BETWEEN -1 AND +2", false},
		{"n + 1 BETWEEN 4 AND 4 AND region IN ('asia')", true},
		// A missing or mistyped operand makes the form invalid, negated
		// forms included.
		{"missing IN (1)", false},
		{"missing NOT IN (1)", false},
		{"n LIKE '3'", false},
		{"n NOT LIKE '3'", false},
		{"region BETWEEN 1 AND 5", false},
		{"region NOT BETWEEN 1 AND 5", false},
	}
	for _, tt := range tests {
		pred, err := ParsePredicate(tt.give)
		if err != nil {
			t.Errorf("ParsePredicate(%q): %v", tt.give, err)
			continue
		}
		if got := pred.Eval(row); got != tt.want {
			t.Errorf("ParsePredicate(%q).Eval = %v, want %v", tt.give, got, tt.want)
		}
		again, err := ParsePredicate(pred.String())
		if err != nil || again.String() != pred.String() {
			t.Errorf("rendering %q of %q does not re-parse to itself: %v", pred.String(), tt.give, err)
		}
	}
}

func TestInLikeBetweenInPrograms(t *testing.T) {
	rows := []value.Map{
		{"region": value.String("asia"), "load": value.Float(0.2)},
		{"region": value.String("europe"), "load": value.Float(0.6)},
		{"region": value.String("americas"), "load": value.Float(0.9)},
	}
	out := evalOne(t, "SELECT COUNT(*) AS n WHERE region IN ('asia', 'europe') AND load NOT BETWEEN 0.5 AND 0.7", rows)
	if n, _ := out.AsInt(); n != 1 {
		t.Errorf("WHERE IN/BETWEEN count = %v, want 1", out)
	}
	out = evalOne(t, "SELECT MAX(load) BETWEEN 0.5 AND 1 AS n", rows)
	if b, _ := out.AsBool(); !b {
		t.Errorf("aggregate BETWEEN = %v, want true", out)
	}
	if _, err := MustParse("SELECT 1 IN (2, load) AS n").Eval(rows); err == nil {
		t.Error("bare column in an IN list outside an aggregate should error")
	}
	if _, err := ParsePredicate("MIN(load) IN (1)"); err == nil {
		t.Error("aggregate inside IN should be rejected in a predicate")
	}
}

// TestEvalWhereSingleRow runs a program's WHERE clause over a one-row
// table: COUNT(*) is 1 when the row passes and 0 when it does not.
func TestEvalWhereSingleRow(t *testing.T) {
	count := func(p *Program, row value.Map) int64 {
		t.Helper()
		out, err := p.Eval([]value.Map{row})
		if err != nil {
			t.Fatal(err)
		}
		n, _ := out["n"].AsInt()
		return n
	}
	p := MustParse("SELECT COUNT(*) AS n WHERE load < 0.5")
	if count(p, value.Map{"load": value.Float(0.1)}) != 1 {
		t.Error("WHERE should accept matching row")
	}
	if count(p, value.Map{"load": value.Float(0.9)}) != 0 {
		t.Error("WHERE should reject non-matching row")
	}
	noWhere := MustParse("SELECT COUNT(*) AS n")
	if count(noWhere, value.Map{}) != 1 {
		t.Error("program without WHERE should accept every row")
	}
}

// Property: COUNT(*) equals the number of rows for arbitrary tables.
func TestQuickCountStar(t *testing.T) {
	p := MustParse("SELECT COUNT(*) AS n")
	f := func(loads []float64) bool {
		rows := make([]value.Map, len(loads))
		for i, l := range loads {
			rows[i] = value.Map{"load": value.Float(l)}
		}
		out, err := p.Eval(rows)
		if err != nil {
			return false
		}
		n, _ := out["n"].AsInt()
		return n == int64(len(loads))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MIN(x) <= every row value and equals some row value.
func TestQuickMinIsLowerBound(t *testing.T) {
	p := MustParse("SELECT MIN(x) AS m")
	f := func(xs []int64) bool {
		if len(xs) == 0 {
			return true
		}
		rows := make([]value.Map, len(xs))
		for i, x := range xs {
			rows[i] = value.Map{"x": value.Int(x)}
		}
		out, err := p.Eval(rows)
		if err != nil {
			return false
		}
		m, ok := out["m"].AsInt()
		if !ok {
			return false
		}
		seen := false
		for _, x := range xs {
			if m > x {
				return false
			}
			if m == x {
				seen = true
			}
		}
		return seen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BIT_OR result has every bit that any input had, and no others.
func TestQuickBitOrIsUnion(t *testing.T) {
	p := MustParse("SELECT BIT_OR(m) AS u")
	f := func(inputs [][]byte) bool {
		rows := make([]value.Map, len(inputs))
		maxLen := 0
		for i, b := range inputs {
			rows[i] = value.Map{"m": value.Bytes(b)}
			if len(b) > maxLen {
				maxLen = len(b)
			}
		}
		out, err := p.Eval(rows)
		if err != nil {
			return false
		}
		u, ok := out["u"].AsBytes()
		if !ok {
			// Valid only when no row had a bytes value.
			return len(inputs) == 0
		}
		if len(u) != maxLen {
			return false
		}
		want := make([]byte, maxLen)
		for _, b := range inputs {
			for i, x := range b {
				want[i] |= x
			}
		}
		for i := range want {
			if u[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinVMaxV(t *testing.T) {
	v := evalOne(t, "SELECT MINV(load, addr) AS a", table())
	if s, _ := v.AsString(); s != "d:1" {
		t.Fatalf("MINV = %v, want d:1", v)
	}
	v = evalOne(t, "SELECT MAXV(load, addr) AS a", table())
	if s, _ := v.AsString(); s != "a:1" {
		t.Fatalf("MAXV = %v, want a:1", v)
	}
	// Empty table: omitted.
	p := MustParse("SELECT MINV(load, addr) AS a")
	out, err := p.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["a"]; ok {
		t.Fatal("MINV over empty table should be omitted")
	}
}

func TestMinVTieBreak(t *testing.T) {
	rows := []value.Map{
		{"load": value.Int(1), "addr": value.String("z")},
		{"load": value.Int(1), "addr": value.String("a")},
	}
	v := evalOne(t, "SELECT MINV(load, addr) AS a", rows)
	if s, _ := v.AsString(); s != "a" {
		t.Fatalf("MINV tie-break = %v, want a", v)
	}
}

func TestMinVNonStringValue(t *testing.T) {
	rows := []value.Map{
		{"load": value.Int(2), "score": value.Int(20)},
		{"load": value.Int(1), "score": value.Int(10)},
	}
	v := evalOne(t, "SELECT MINV(load, score) AS s", rows)
	if n, _ := v.AsInt(); n != 10 {
		t.Fatalf("MINV with int value = %v, want 10", v)
	}
}

func TestRepsAggregate(t *testing.T) {
	// Leaf-level: scalar addresses.
	leafRows := []value.Map{
		{"load": value.Float(0.9), "addr": value.String("a")},
		{"load": value.Float(0.1), "addr": value.String("b")},
		{"load": value.Float(0.5), "addr": value.String("c")},
	}
	v := evalOne(t, "SELECT REPS(2, load, COALESCE(reps, addr)) AS r", leafRows)
	got, _ := v.AsStrings()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("leaf REPS = %v, want [b c]", got)
	}

	// Zone-level: child rows carry rep lists; REPS must flatten them
	// round-robin so redundancy spans zones.
	zoneRows := []value.Map{
		{"load": value.Float(0.2), "reps": value.Strings([]string{"z1a", "z1b"})},
		{"load": value.Float(0.3), "reps": value.Strings([]string{"z2a", "z2b"})},
	}
	v = evalOne(t, "SELECT REPS(3, load, COALESCE(reps, addr)) AS r", zoneRows)
	got, _ = v.AsStrings()
	if len(got) != 3 {
		t.Fatalf("zone REPS = %v, want 3 reps", got)
	}
	// Round-robin: first rep of each zone before second reps.
	if got[0] != "z1a" || got[1] != "z2a" {
		t.Fatalf("zone REPS order = %v, want z1a,z2a first", got)
	}

	// Deduplication across rows.
	dupRows := []value.Map{
		{"load": value.Float(0.1), "reps": value.Strings([]string{"x"})},
		{"load": value.Float(0.2), "reps": value.Strings([]string{"x", "y"})},
	}
	v = evalOne(t, "SELECT REPS(3, load, reps) AS r", dupRows)
	got, _ = v.AsStrings()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("dedup REPS = %v, want [x y]", got)
	}

	// Empty table: omitted.
	p := MustParse("SELECT REPS(3, load, addr) AS r")
	out, err := p.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["r"]; ok {
		t.Fatal("REPS over empty table should be omitted")
	}

	// Rows with the wrong kinds are skipped.
	junkRows := []value.Map{
		{"load": value.Float(0.1), "reps": value.Int(5)},
		{"load": value.Float(0.2)},
	}
	out, _ = MustParse("SELECT REPS(3, load, reps) AS r").Eval(junkRows)
	if _, ok := out["r"]; ok {
		t.Fatal("REPS over unusable rows should be omitted")
	}
}

func TestNotOperator(t *testing.T) {
	if v := evalOne(t, "SELECT COUNT(*) AS n WHERE NOT FALSE", []value.Map{{}}); !v.Equal(value.Int(1)) {
		t.Fatalf("NOT FALSE = %v", v)
	}
	if v := evalOne(t, "SELECT COUNT(*) AS n WHERE NOT NOT TRUE", []value.Map{{}}); !v.Equal(value.Int(1)) {
		t.Fatalf("NOT NOT TRUE = %v", v)
	}
}

func TestUnaryMinusEdgeCases(t *testing.T) {
	// Negating a non-numeric value is invalid and omitted.
	out, _ := MustParse("SELECT -MIN(s) AS x").Eval([]value.Map{{"s": value.String("a")}})
	if _, ok := out["x"]; ok {
		t.Fatal("negated string should be omitted")
	}
	// Negating a float works.
	v := evalOne(t, "SELECT -MIN(f) AS x", []value.Map{{"f": value.Float(2.5)}})
	if !v.Equal(value.Float(-2.5)) {
		t.Fatalf("-2.5 = %v", v)
	}
}

func TestScalarIfFalseBranchAndAbsFloat(t *testing.T) {
	if v := evalOne(t, "SELECT MIN(IF(FALSE, 1, 2)) AS x", []value.Map{{}}); !v.Equal(value.Int(2)) {
		t.Fatalf("IF false branch = %v", v)
	}
	if v := evalOne(t, "SELECT MIN(ABS(0.5 - 2)) AS x", []value.Map{{}}); !v.Equal(value.Float(1.5)) {
		t.Fatalf("ABS float = %v", v)
	}
	out, _ := MustParse("SELECT MIN(ABS(s)) AS x").Eval([]value.Map{{"s": value.String("a")}})
	if _, ok := out["x"]; ok {
		t.Fatal("ABS of string should be omitted")
	}
}

func TestExprStringForms(t *testing.T) {
	p := MustParse("SELECT MIN(-load) AS a, MAX(LEN(s)) AS b WHERE NOT x AND s = 'it''s'")
	rendered := p.String()
	for _, want := range []string{"MIN(-load)", "LEN(s)", "NOT x", "'it''s'"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("String() missing %q: %s", want, rendered)
		}
	}
}

func TestCountStarString(t *testing.T) {
	p := MustParse("SELECT COUNT(*) AS n")
	if !strings.Contains(p.String(), "COUNT(*)") {
		t.Fatalf("String() = %q", p.String())
	}
}
