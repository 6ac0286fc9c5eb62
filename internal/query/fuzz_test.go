package query

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"time"

	"newswire/internal/value"
)

// parsePredicateSeeds seed FuzzParsePredicate and the differential target.
var parsePredicateSeeds = []string{
	"subject = 'tech/linux'",
	"subject IN ('a', 'b') AND urgency <= 3",
	"publisher LIKE 'reu%' OR NOT (urgency BETWEEN 2 AND 5)",
	"published >= '2026-08-01' AND revision != 0",
	"subjects NOT IN ('x''y')",
	"TRUE AND (FALSE OR item_id = 'a')",
	"urgency NOT BETWEEN 1 AND",
	"((((", "subject =", "NOT NOT NOT urgency < 9",
}

// roundTripSeeds seed FuzzPredicateRoundTrip and the differential target.
var roundTripSeeds = []string{
	"subject = 'tech/linux'",
	"Subject != 'a''b'",
	"subject NOT LIKE '%x_' OR urgency <> 3",
	"(publisher IN ('a') AND TRUE) OR published < '2026-01-02T15:04:05.999999999Z'",
	"urgency NOT IN (0, 8) AND revision BETWEEN -2 AND 7",
}

// divergenceSeeds are the spots where sqlagg's grammar and the old parser
// could part: a parenthesised operand (accepted now, a named superset
// class), a unary plus (accepted by both), a nested unary minus and a
// literal on the left (rejected by both).
var divergenceSeeds = []string{
	"(urgency) = 3",
	"urgency = +3",
	"urgency = --3",
	"3 = urgency",
}

// FuzzParsePredicate asserts the parser never panics, and that anything
// it accepts can be evaluated and compiled without panicking.
func FuzzParsePredicate(f *testing.F) {
	for _, s := range parsePredicateSeeds {
		f.Add(s)
	}
	it := value.Map{
		"publisher": value.String("reuters"),
		"item_id":   value.String("a"),
		"revision":  value.Int(1),
		"urgency":   value.Int(3),
		"subjects":  value.Strings([]string{"tech/linux"}),
		"published": value.Time(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)),
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		_ = p.Match(it)
		_ = p.Compile()
	})
}

// FuzzPredicateRoundTrip asserts parse → String → parse is a fixpoint:
// the canonical rendering re-parses, and re-parsing it is idempotent.
func FuzzPredicateRoundTrip(f *testing.F) {
	for _, s := range roundTripSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("canonical form %q (of %q) does not re-parse: %v", p.String(), src, err)
		}
		if again.String() != p.String() {
			t.Fatalf("String not a fixpoint: %q re-parses to %q", p.String(), again.String())
		}
	})
}

// FuzzPredicateParserDifferential holds Parse to the old parser kept in
// oracle_test.go: both accept or both reject, and what both accept has
// the same canonical String and the same Match over random metadata rows.
// The one input class Parse accepts beyond the oracle is a parenthesised
// operand (DESIGN §13); such an input must equal the oracle's parse of
// the same input with those parentheses removed.
func FuzzPredicateParserDifferential(f *testing.F) {
	for _, seeds := range [][]string{parsePredicateSeeds, roundTripSeeds, parseErrorInputs, divergenceSeeds} {
		for _, s := range seeds {
			f.Add(s)
		}
	}
	for _, tc := range parseAndMatchCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, err := Parse(src)
		want, oracleErr := oracleParse(src)
		switch {
		case err != nil && oracleErr != nil:
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q) error %T, want *SyntaxError", src, err)
			}
			return
		case err != nil:
			t.Fatalf("Parse rejects %q, which the oracle accepts as %q: %v", src, want, err)
		case oracleErr != nil:
			bare, ok := stripOperandParens(src)
			if !ok {
				t.Fatalf("Parse accepts %q as %q, the oracle rejects it: %v", src, got, oracleErr)
			}
			if want, oracleErr = oracleParse(bare); oracleErr != nil {
				t.Fatalf("Parse accepts %q as %q, the oracle rejects it and its bare form %q: %v", src, got, bare, oracleErr)
			}
		}
		if got.String() != want.String() {
			t.Fatalf("String of %q: Parse %q, oracle %q", src, got, want)
		}
		for _, row := range differentialRows(src) {
			if got.Match(row) != want.Match(row) {
				t.Fatalf("Match of %q on %v: Parse %v, oracle %v", src, row, got.Match(row), want.Match(row))
			}
		}
	})
}

// stripOperandParens removes, to a fixpoint, every parenthesis pair that
// holds one operand alone — a field name, a literal, or a signed literal —
// except an IN list's, and renders the tokens left. ok is false when src
// does not lex or has no such pair.
func stripOperandParens(src string) (bare string, ok bool) {
	toks, err := oracleLex(src)
	if err != nil {
		return "", false
	}
	isOp := func(tok oracleToken, op string) bool { return tok.Kind == oracleOp && tok.Text == op }
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(toks); i++ {
			if !isOp(toks[i], "(") || (i > 0 && toks[i-1].Kind == oracleKeyword && toks[i-1].Text == "IN") {
				continue
			}
			j := i + 1
			if j < len(toks) && (isOp(toks[j], "-") || isOp(toks[j], "+")) {
				j++
			}
			if j+1 >= len(toks) || !isOp(toks[j+1], ")") {
				continue
			}
			if k := toks[j].Kind; k != oracleIdent && k != oracleNumber && k != oracleString {
				continue
			}
			toks = append(toks[:j+1], toks[j+2:]...)
			toks = append(toks[:i], toks[i+1:]...)
			changed, ok = true, true
		}
	}
	var sb strings.Builder
	for _, tok := range toks {
		if tok.Kind == oracleString {
			quoteString(&sb, tok.Text)
		} else {
			sb.WriteString(tok.Text)
		}
		sb.WriteByte(' ')
	}
	return sb.String(), ok
}

// differentialRows draws metadata rows from small value pools, seeded by
// src so a failure replays: well-typed rows that the seeds' literals hit
// and miss, an empty row, and a row with every field mistyped.
func differentialRows(src string) []value.Map {
	h := fnv.New64a()
	h.Write([]byte(src))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	subjects := []string{"a", "b", "x", "x'y", "tech/linux", "world/markets", "sci/space"}
	publishers := []string{"a", "ap", "reuters", "r"}
	day := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	rows := []value.Map{{}, {
		"publisher": value.Int(1), "item_id": value.Int(1), "revision": value.String("1"),
		"urgency": value.String("3"), "subjects": value.String("a"), "published": value.String("2026-08-01"),
	}}
	for i := 0; i < 8; i++ {
		subs := make([]string, rng.Intn(3))
		for j := range subs {
			subs[j] = pick(subjects)
		}
		rows = append(rows, value.Map{
			"publisher": value.String(pick(publishers)),
			"item_id":   value.String(pick([]string{"a", "a1", "b"})),
			"revision":  value.Int(int64(rng.Intn(12) - 3)),
			"urgency":   value.Int(int64(rng.Intn(10))),
			"subjects":  value.Strings(subs),
			"published": value.Time(day.Add(time.Duration(rng.Intn(96)-48) * time.Hour)),
		})
	}
	return rows
}
