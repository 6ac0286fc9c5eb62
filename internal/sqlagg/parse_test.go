package sqlagg

import (
	"testing/quick"

	"newswire/internal/value"
	"strings"
	"testing"
)

func TestParseValidPrograms(t *testing.T) {
	tests := []struct {
		give      string
		wantNames []string
	}{
		{"SELECT COUNT(*)", []string{"count"}},
		{"SELECT COUNT(*) AS members", []string{"members"}},
		{"select min(load) as load", []string{"load"}},
		{"SELECT MIN(load) AS minload, MAX(load) AS maxload", []string{"minload", "maxload"}},
		{"SELECT BIT_OR(subs) AS subs", []string{"subs"}},
		{"SELECT MINK(3, load, addr) AS reps", []string{"reps"}},
		{"SELECT SUM(load)/COUNT(*) AS meanload", []string{"meanload"}},
		{"SELECT COUNT(*) AS n WHERE alive", []string{"n"}},
		{"SELECT COUNT(*) AS n WHERE load < 0.5 AND alive = TRUE", []string{"n"}},
		{"SELECT FIRST(name) AS who WHERE NOT failed", []string{"who"}},
		{"SELECT AVG(latency) AS lat WHERE region = 'asia'", []string{"lat"}},
		{"SELECT MAXK(2, score, addr) AS best", []string{"best"}},
		{"SELECT BOOL_OR(alive) AS any_alive, BOOL_AND(alive) AS all_alive", []string{"any_alive", "all_alive"}},
		{"SELECT UNION(pubs) AS pubs", []string{"pubs"}},
		{"SELECT MIN(HASH(addr, nonce)) AS h", []string{"h"}},
		{"SELECT 1 AS one", []string{"one"}},
		{"SELECT COUNT(x)", []string{"count"}},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			p, err := Parse(tt.give)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.give, err)
			}
			got := p.OutputNames()
			if len(got) != len(tt.wantNames) {
				t.Fatalf("output names %v, want %v", got, tt.wantNames)
			}
			for i := range got {
				if got[i] != tt.wantNames[i] {
					t.Fatalf("output names %v, want %v", got, tt.wantNames)
				}
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		give    string
		wantErr string
	}{
		{"", "expected SELECT"},
		{"FROM x", "expected SELECT"},
		{"SELECT", "unexpected"},
		{"SELECT COUNT(*) extra", "trailing"},
		{"SELECT MIN(*)", "only COUNT(*)"},
		{"SELECT NOPE(x)", "unknown function"},
		{"SELECT MIN(x, y)", "arguments"},
		{"SELECT MINK(1, x)", "arguments"},
		{"SELECT MIN(MAX(x))", "nested aggregate"},
		{"SELECT 1 + 2", "requires AS"},
		{"SELECT COUNT(*) AS n, MIN(x) AS n", "duplicate output"},
		{"SELECT COUNT(*) AS 5", "identifier after AS"},
		{"SELECT 'unterminated", "unterminated string"},
		{"SELECT 1.", "malformed number"},
		{"SELECT @", "unexpected character"},
		{"SELECT (COUNT(*)", `expected ")"`},
		{"SELECT COUNT(*) WHERE", "unexpected"},
		{"SELECT IF(*)", "not valid"},
		{"SELECT ABS(1, 2) AS x", "arguments"},
		{"SELECT COUNT(*) AS n WHERE x !", "unexpected character"},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			_, err := Parse(tt.give)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tt.give, tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Parse(%q) error = %q, want substring %q", tt.give, err, tt.wantErr)
			}
		})
	}
}

func TestParseNormalizedString(t *testing.T) {
	p := MustParse("select count(*) as n, bit_or(subs) as subs where alive and load<0.5")
	s := p.String()
	for _, want := range []string{"SELECT", "COUNT(*) AS n", "BIT_OR(subs) AS subs", "WHERE", "AND", "load < 0.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("normalized %q missing %q", s, want)
		}
	}
}

func TestParseSourcePreserved(t *testing.T) {
	src := "SELECT COUNT(*) AS n"
	p := MustParse(src)
	if p.Source() != src {
		t.Fatalf("Source() = %q, want %q", p.Source(), src)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("not sql")
}

func TestParsePrecedence(t *testing.T) {
	// 1 + 2 * 3 = 7, not 9.
	p := MustParse("SELECT 1 + 2 * 3 AS x")
	out, err := p.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out["x"].AsInt(); v != 7 {
		t.Fatalf("1+2*3 = %v, want 7", out["x"])
	}
	// (1 + 2) * 3 = 9.
	p = MustParse("SELECT (1 + 2) * 3 AS x")
	out, _ = p.Eval(nil)
	if v, _ := out["x"].AsInt(); v != 9 {
		t.Fatalf("(1+2)*3 = %v, want 9", out["x"])
	}
	// Comparison binds looser than arithmetic; AND looser than comparison;
	// OR loosest.
	p2 := MustParse("SELECT COUNT(*) AS n WHERE a + 1 > 2 AND b = 1 OR c = 2")
	if p2.Where == nil {
		t.Fatal("missing WHERE")
	}
	top, ok := p2.Where.(*Binary)
	if !ok || top.Op != "OR" {
		t.Fatalf("top operator = %v, want OR", p2.Where)
	}
}

func TestParseStringEscapes(t *testing.T) {
	p := MustParse("SELECT 'it''s' AS s")
	out, err := p.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := out["s"].AsString(); s != "it's" {
		t.Fatalf("s = %q, want \"it's\"", s)
	}
}

func TestParsePredicate(t *testing.T) {
	pred, err := ParsePredicate("premium AND region = 'asia'")
	if err != nil {
		t.Fatal(err)
	}
	if pred.Source() == "" || pred.String() == "" {
		t.Fatal("predicate lost its source text")
	}
	if _, err := ParsePredicate("COUNT(*) > 1"); err == nil {
		t.Fatal("aggregate in predicate should be rejected")
	}
	if _, err := ParsePredicate("a b"); err == nil {
		t.Fatal("trailing input should be rejected")
	}
	if _, err := ParsePredicate("(("); err == nil {
		t.Fatal("unbalanced parens should be rejected")
	}
}

func TestParseInLikeBetweenErrors(t *testing.T) {
	for _, tt := range []struct{ give, wantErr string }{
		{"x IN ()", "unexpected"},
		{"x IN 1", `expected "("`},
		{"x IN (1, 2", `expected ")"`},
		{"x LIKE y", "string pattern after LIKE"},
		{"x BETWEEN 1 5", "expected AND"},
		{"x NOT = 1", "expected IN, LIKE, or BETWEEN after NOT"},
		// IN, LIKE and BETWEEN are keywords: no column can take their names.
		{"in = 1", "unexpected keyword"},
		{"like", "unexpected keyword"},
		{"between > 0", "unexpected keyword"},
	} {
		if _, err := ParsePredicate(tt.give); err == nil || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("ParsePredicate(%q) error = %v, want substring %q", tt.give, err, tt.wantErr)
		}
	}
	if _, err := Parse("SELECT MIN(between) AS x"); err == nil {
		t.Error("a column named between should not parse in a program")
	}
}

func TestFunctionNameLists(t *testing.T) {
	aggs := AggregateNames()
	if len(aggs) == 0 {
		t.Fatal("no aggregates registered")
	}
	for i := 1; i < len(aggs); i++ {
		if aggs[i-1] >= aggs[i] {
			t.Fatal("AggregateNames not sorted")
		}
	}
	scalars := ScalarNames()
	if len(scalars) == 0 {
		t.Fatal("no scalar functions registered")
	}
	found := false
	for _, s := range scalars {
		if s == "HASH" {
			found = true
		}
	}
	if !found {
		t.Fatal("HASH missing from scalar registry")
	}
}

// Property: Parse never panics on arbitrary input, and parses of valid
// programs re-parse to the same normalized form (idempotent rendering).
func TestQuickParseRobustness(t *testing.T) {
	f := func(src string) bool {
		// Must not panic; errors are fine.
		p, err := Parse(src)
		if err != nil {
			return true
		}
		// A successfully parsed program renders to a form that parses
		// again to the same rendering.
		p2, err := Parse(p.String())
		if err != nil {
			return false
		}
		return p.String() == p2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: predicates never panic on arbitrary input either.
func TestQuickPredicateRobustness(t *testing.T) {
	row := value.Map{"a": value.Int(1), "s": value.String("x")}
	f := func(src string) bool {
		pred, err := ParsePredicate(src)
		if err != nil {
			return true
		}
		pred.Eval(row) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
