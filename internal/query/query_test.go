package query

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"newswire/internal/news"
	"newswire/internal/value"
)

// row builds a metadata row the way pubsub's item-metadata row is built.
func row(publisher, id string, rev, urg int, subjects []string, published time.Time) value.Map {
	return value.Map{
		"publisher": value.String(publisher),
		"item_id":   value.String(id),
		"revision":  value.Int(int64(rev)),
		"urgency":   value.Int(int64(urg)),
		"subjects":  value.Strings(subjects),
		"published": value.Time(published),
	}
}

// parseAndMatchCases are TestParseAndMatch's predicates and their verdict
// on its item; FuzzPredicateParserDifferential seeds from them too.
var parseAndMatchCases = []struct {
	src  string
	want bool
}{
	{"subject = 'tech/linux'", true},
	{"subjects = 'tech/linux'", true},
	{"subject = 'sci/space'", false},
	{"subject != 'sci/space'", true},
	{"subject != 'tech/linux'", false}, // negated existential: some subject equals it
	{"publisher = 'reuters'", true},
	{"publisher <> 'reuters'", false},
	{"urgency <= 3", true},
	{"urgency < 3", false},
	{"urgency BETWEEN 2 AND 5", true},
	{"urgency NOT BETWEEN 2 AND 5", false},
	{"urgency IN (1, 3, 5)", true},
	{"urgency NOT IN (1, 3, 5)", false},
	{"revision >= 2", true},
	{"subject IN ('sci/space', 'world/markets')", true},
	{"subject NOT IN ('sci/space')", true},
	{"publisher LIKE 'reu%'", true},
	{"publisher NOT LIKE 'reu%'", false},
	{"subject LIKE 'tech/%'", true},
	{"subject LIKE '%__linux'", true},
	{"subject LIKE 'tech'", false},
	{"item_id = 'a1' AND urgency = 3", true},
	{"urgency = 1 OR publisher = 'reuters'", true},
	{"NOT (urgency = 1 OR publisher = 'ap')", true},
	{"published >= '2026-08-01'", true},
	{"published > '2026-08-01T12:00:00Z'", false},
	{"published BETWEEN '2026-07-01' AND '2026-09-01'", true},
	{"TRUE", true},
	{"FALSE", false},
	{"subject = 'tech/linux' AND NOT publisher = 'ap' AND urgency <= 4", true},
}

func TestParseAndMatch(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	it := row("reuters", "a1", 2, 3, []string{"tech/linux", "world/markets"}, base)

	for _, tc := range parseAndMatchCases {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		if got := p.Match(it); got != tc.want {
			t.Errorf("Match(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// parseErrorInputs are the predicates TestParseErrors expects Parse to
// reject; FuzzPredicateParserDifferential seeds from them too.
var parseErrorInputs = []string{
	"",
	"bogus = 'x'",
	"urgency = 'three'",
	"urgency = 3.5",
	"publisher = 3",
	"publisher < 'a'", // ordered compare on a string field
	"subject BETWEEN 'a' AND 'b'",
	"urgency LIKE '3'",
	"published = 'not-a-time'",
	"subject IN ()",
	"subject IN ('a',)",
	"urgency BETWEEN 1 5",
	"subject = 'a' AND",
	"subject = 'a' extra",
	"NOT",
	"(subject = 'a'",
	"subject NOT = 'a'",
	"urgency IN (1, 'two')",
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorInputs {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) error %T, want *SyntaxError", src, err)
			}
		}
	}
}

// TestParseParenthesisedOperand pins the one class of input Parse accepts
// beyond the parser it replaced (DESIGN §13): parentheses around a lone
// field or literal. sqlagg's tree drops them, so each input means exactly
// its bare form.
func TestParseParenthesisedOperand(t *testing.T) {
	for _, tc := range []struct{ src, bare string }{
		{"(urgency) = 3", "urgency = 3"},
		{"urgency = (3)", "urgency = 3"},
		{"urgency = -(3)", "urgency = -3"},
		{"urgency = (-3)", "urgency = -3"},
		{"((subject)) IN (('a'), 'b')", "subject IN ('a', 'b')"},
		{"(publisher) NOT LIKE 'r%'", "publisher NOT LIKE 'r%'"},
		{"published BETWEEN ('2026-01-01') AND '2026-02-01'", "published BETWEEN '2026-01-01' AND '2026-02-01'"},
	} {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		bare, err := Parse(tc.bare)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.bare, err)
		}
		if p.String() != bare.String() {
			t.Errorf("Parse(%q) = %q, want %q", tc.src, p, bare)
		}
	}
}

// TestParseSignsAndOperandOrder pins the other spots where sqlagg's
// grammar could part from the old parser: one sign before an integer is
// taken, two are not, and the field stands on the left.
func TestParseSignsAndOperandOrder(t *testing.T) {
	for _, tc := range []struct {
		src, want string // want "" = rejected
	}{
		{"urgency = +3", "urgency = 3"},
		{"urgency IN (+1, -1)", "urgency IN (1, -1)"},
		{"urgency = --3", ""},
		{"urgency = -+3", ""},
		{"publisher = -'a'", ""},
		{"3 = urgency", ""},
		{"'reuters' = publisher", ""},
		{"urgency = 3.0", ""},
		{"urgency + 0 = 3", ""},
		{"urgency", ""},
	} {
		p, err := Parse(tc.src)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("Parse(%q) = %q, want an error", tc.src, p)
		case tc.want != "" && err != nil:
			t.Errorf("Parse(%q): %v", tc.src, err)
		case tc.want != "" && p.String() != tc.want:
			t.Errorf("Parse(%q) = %q, want %q", tc.src, p, tc.want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"subject = 'tech/linux'",
		"Subject  =  'a''b'", // alias + escaped quote normalize
		"urgency <> 3",
		"subject IN ('a', 'b') AND NOT publisher LIKE 'r%' OR urgency NOT BETWEEN 2 AND 5",
		"published < '2026-08-01T00:00:00Z' AND revision = -1",
		"(TRUE OR FALSE) AND subjects != 'x'",
	}
	for _, src := range srcs {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q) of %q: %v", p.String(), src, err)
		}
		if again.String() != p.String() {
			t.Errorf("round trip of %q: %q != %q", src, again.String(), p.String())
		}
	}
}

func TestFieldsMatchNewsMetadata(t *testing.T) {
	if got, want := Fields(), news.MetadataFields(); !reflect.DeepEqual(got, want) {
		t.Fatalf("query.Fields() = %v, news.MetadataFields() = %v", got, want)
	}
}

func TestCompileCovers(t *testing.T) {
	cases := []struct {
		src  string
		want Signature
	}{
		{
			"subject = 'a'",
			Signature{Subjects: []string{"a"}, AnyPublisher: true, AnyUrgency: true},
		},
		{
			"subject IN ('b', 'a', 'a') AND publisher = 'reuters' AND urgency <= 2",
			Signature{Subjects: []string{"a", "b"}, Publishers: []string{"reuters"}, Urgencies: []int{0, 1, 2}},
		},
		{
			// OR unions per dimension; the cross terms widen to wildcards.
			"subject = 'a' OR urgency = 3",
			Signature{AnySubject: true, AnyPublisher: true, AnyUrgency: true},
		},
		{
			"(subject = 'a' AND urgency = 1) OR (subject = 'b' AND urgency = 2)",
			Signature{Subjects: []string{"a", "b"}, AnyPublisher: true, Urgencies: []int{1, 2}},
		},
		{
			// AND of two subject constraints: intersection would be unsound
			// (an item can carry both); the smaller sound side wins.
			"subject = 'a' AND subject IN ('b', 'c')",
			Signature{Subjects: []string{"a"}, AnyPublisher: true, AnyUrgency: true},
		},
		{
			// Negations over string dimensions widen; urgency stays exact.
			"subject != 'a' AND publisher NOT IN ('x') AND urgency != 0",
			Signature{AnySubject: true, AnyPublisher: true, Urgencies: []int{1, 2, 3, 4, 5, 6, 7, 8}},
		},
		{
			"NOT (subject = 'a')",
			Signature{AnySubject: true, AnyPublisher: true, AnyUrgency: true},
		},
		{
			"publisher LIKE 'reuters'", // wildcard-free LIKE is equality
			Signature{AnySubject: true, Publishers: []string{"reuters"}, AnyUrgency: true},
		},
		{
			"publisher LIKE 'reu%'",
			Signature{AnySubject: true, AnyPublisher: true, AnyUrgency: true},
		},
		{
			"FALSE",
			Signature{},
		},
		{
			"urgency BETWEEN 3 AND 99", // clamped to the domain
			Signature{AnySubject: true, AnyPublisher: true, Urgencies: []int{3, 4, 5, 6, 7, 8}},
		},
	}
	for _, tc := range cases {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		if got := p.Compile(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Compile(%q) = %+v, want %+v", tc.src, got, tc.want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"", "", true},
		{"", "a", false},
		{"%", "", true},
		{"%", "anything", true},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"a%c", "abc", true},
		{"a%c", "ac", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"a%b%c", "axxbyyc", true},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"%world/%", "world/politics", true},
		{"__", "ab", true},
		{"__", "a", false},
		{"%a%a", "aab", false},
	}
	for _, tc := range cases {
		p, err := Parse("publisher LIKE '" + tc.pattern + "'")
		if err != nil {
			t.Fatalf("Parse LIKE %q: %v", tc.pattern, err)
		}
		if got := p.Match(value.Map{"publisher": value.String(tc.s)}); got != tc.want {
			t.Errorf("%q LIKE %q = %v, want %v", tc.s, tc.pattern, got, tc.want)
		}
	}
}

func TestMatchMissingFieldsIsFalse(t *testing.T) {
	empty := value.Map{}
	for _, src := range []string{
		"subject = 'a'", "subject != 'a'", "publisher != 'a'",
		"urgency NOT IN (1)", "published < '2026-01-01'", "subject NOT LIKE 'a%'",
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if p.Match(empty) {
			t.Errorf("Match(%q) on empty row = true, want false", src)
		}
	}
}

func TestSubjectsSignature(t *testing.T) {
	sig := SubjectsSignature([]string{"b", "a", "b"})
	want := Signature{Subjects: []string{"a", "b"}, AnyPublisher: true, AnyUrgency: true}
	if !reflect.DeepEqual(sig, want) {
		t.Fatalf("SubjectsSignature = %+v, want %+v", sig, want)
	}
}

func TestParseErrorMentionsFields(t *testing.T) {
	_, err := Parse("nope = 1")
	if err == nil || !strings.Contains(err.Error(), "urgency") {
		t.Fatalf("unknown-field error should list fields, got %v", err)
	}
}
