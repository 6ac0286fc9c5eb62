// Package query implements NewsWire's typed subscription predicate
// language over NITF-style news metadata — the "more complex selection
// criteria based on the meta-data associated with the news-items, in the
// form of an SQL query" of paper §7–8.
//
// A predicate is a boolean expression over the fixed metadata fields of
// pubsub.ItemMetadataRow (publisher, item_id, revision, urgency, subjects,
// published), built from comparisons, IN lists, LIKE patterns, BETWEEN
// ranges, and AND/OR/NOT. It is sqlagg's predicate grammar: Parse runs
// sqlagg.ParsePredicate and then one type-check pass that turns the
// untyped syntax tree into this package's typed nodes, so the two dialects
// cannot drift on syntax, string escaping, numbers or operators.
//
// Each predicate supports two evaluations:
//
//   - Match: the exact evaluator, run at the leaf in place of the plain
//     subject bit test. Multi-valued fields (subjects) match
//     existentially: subjects = 'x' is "some subject equals x", and
//     subjects != 'x' is its negation ("no subject equals x").
//   - Compile: a coarse routing Signature — per-dimension covers over the
//     subject, publisher, and urgency dimensions, hashed into one Bloom
//     filter for OR-aggregation up the zone hierarchy. The signature is
//     sound: it can forward too much, never too little (see signature.go).
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"newswire/internal/sqlagg"
	"newswire/internal/value"
)

// SyntaxError reports a lexical, grammatical, or type failure with its
// byte position in the source. It is sqlagg's: Parse is sqlagg's parser
// followed by a type check.
type SyntaxError = sqlagg.SyntaxError

// fieldType is the static type of a metadata field or literal.
type fieldType uint8

const (
	ftString  fieldType = iota + 1
	ftInt               // revision, urgency
	ftTime              // published (string literals, RFC 3339)
	ftStrings           // subjects: multi-valued, existential semantics
)

func (t fieldType) String() string {
	switch t {
	case ftString:
		return "string"
	case ftInt:
		return "integer"
	case ftTime:
		return "timestamp"
	case ftStrings:
		return "string set"
	default:
		return "unknown"
	}
}

// fieldInfo describes one queryable metadata field.
type fieldInfo struct {
	name string // canonical name (aliases normalize to it)
	typ  fieldType
}

// fields maps every accepted field spelling to its canonical descriptor.
// The set mirrors news.MetadataFields; "subject" is accepted as an alias
// for "subjects" since single-subject predicates read naturally with it.
var fields = map[string]fieldInfo{
	"publisher": {"publisher", ftString},
	"item_id":   {"item_id", ftString},
	"revision":  {"revision", ftInt},
	"urgency":   {"urgency", ftInt},
	"subjects":  {"subjects", ftStrings},
	"subject":   {"subjects", ftStrings},
	"published": {"published", ftTime},
}

// Fields returns the canonical queryable field names, sorted. It must
// stay in lockstep with pubsub.ItemMetadataRow; a test pins it to
// news.MetadataFields.
func Fields() []string {
	seen := make(map[string]bool)
	var out []string
	for _, fi := range fields {
		if !seen[fi.name] {
			seen[fi.name] = true
			out = append(out, fi.name)
		}
	}
	sort.Strings(out)
	return out
}

// literal is a typed constant: a string, an integer, or a timestamp
// (written as an RFC 3339 string literal).
type literal struct {
	typ fieldType // ftString, ftInt, or ftTime
	s   string
	i   int64
	t   time.Time
}

func (l literal) append(sb *strings.Builder) {
	switch l.typ {
	case ftInt:
		sb.WriteString(strconv.FormatInt(l.i, 10))
	case ftTime:
		quoteString(sb, l.t.Format(time.RFC3339Nano))
	default:
		quoteString(sb, l.s)
	}
}

// quoteString writes a single-quoted SQL string literal, doubling
// embedded quotes (the sqlagg lexer's escape).
func quoteString(sb *strings.Builder, s string) {
	sb.WriteByte('\'')
	sb.WriteString(strings.ReplaceAll(s, "'", "''"))
	sb.WriteByte('\'')
}

// Predicate is a parsed, type-checked subscription predicate.
type Predicate struct {
	expr expr
	src  string // canonical rendering (stable under re-parse)
}

// Parse parses and type-checks one predicate expression.
func Parse(src string) (*Predicate, error) {
	tree, err := sqlagg.ParsePredicate(src)
	if err != nil {
		return nil, err
	}
	c := &checker{src: src}
	e := c.boolean(tree.Expr())
	if c.err != nil {
		return nil, c.err
	}
	var sb strings.Builder
	e.append(&sb)
	return &Predicate{expr: e, src: sb.String()}, nil
}

// String returns the canonical source: normalized field names and
// operators, fully parenthesized combinators. Parsing the result yields
// an identical predicate (FuzzRoundTrip pins this).
func (p *Predicate) String() string { return p.src }

// checker is the type-check pass from sqlagg's syntax tree to typed nodes:
// each atom has a field on its left and literals of the field's type on
// its right. The first error sticks and later checks only return zero
// values, so the pass reads straight through.
type checker struct {
	src string
	err error
}

func (c *checker) fail(at sqlagg.Expr, format string, args ...any) {
	if c.err == nil {
		c.err = &SyntaxError{Pos: at.Pos(), Msg: fmt.Sprintf(format, args...), Src: c.src}
	}
}

// boolean checks a node in boolean position: a combinator, an atom, or
// TRUE/FALSE.
func (c *checker) boolean(e sqlagg.Expr) expr {
	switch n := e.(type) {
	case *sqlagg.Literal:
		if b, ok := n.Val.AsBool(); ok {
			return boolLit(b)
		}
	case *sqlagg.Unary:
		if n.Op == "NOT" {
			return &notExpr{x: c.boolean(n.X)}
		}
	case *sqlagg.Binary:
		if n.Op == "AND" || n.Op == "OR" {
			return &binExpr{or: n.Op == "OR", l: c.boolean(n.L), r: c.boolean(n.R)}
		}
		fi, lits := c.atom(n.L, n.Op, n.R)
		return &cmpExpr{f: fi, op: n.Op, lit: lits[0]}
	case *sqlagg.In:
		fi, lits := c.atom(n.X, "IN", n.List...)
		return &inExpr{f: fi, lits: lits, neg: n.Not}
	case *sqlagg.Like:
		fi, _ := c.atom(n.X, "LIKE")
		return &likeExpr{f: fi, pattern: n.Pattern, neg: n.Not}
	case *sqlagg.Between:
		fi, lits := c.atom(n.X, "BETWEEN", n.Lo, n.Hi)
		return &betweenExpr{f: fi, lo: lits[0], hi: lits[1], neg: n.Not}
	}
	c.fail(e, "expected a comparison, IN, LIKE, BETWEEN, TRUE, or FALSE, found %s", e)
	return boolLit(false)
}

// atom checks an atom: its left side is a field, op applies to the
// field's type, and every operand is a literal of that type.
func (c *checker) atom(left sqlagg.Expr, op string, operands ...sqlagg.Expr) (fieldInfo, []literal) {
	lits := make([]literal, len(operands))
	col, ok := left.(*sqlagg.ColumnRef)
	if !ok {
		c.fail(left, "expected a field name, found %s", left)
		return fieldInfo{}, lits
	}
	fi, ok := fields[strings.ToLower(col.Name)]
	if !ok {
		c.fail(left, "unknown field %q (fields: %s)", col.Name, strings.Join(Fields(), ", "))
		return fi, lits
	}
	switch op {
	case "=", "!=", "IN":
	case "LIKE":
		if fi.typ != ftString && fi.typ != ftStrings {
			c.fail(left, "LIKE requires a string field, %s is %s", fi.name, fi.typ)
		}
	case "<", "<=", ">", ">=", "BETWEEN":
		if fi.typ != ftInt && fi.typ != ftTime {
			c.fail(left, "%s requires an ordered field, %s is %s", op, fi.name, fi.typ)
		}
	default:
		c.fail(left, "unsupported operator %q", op)
	}
	for i, e := range operands {
		lits[i] = c.literal(fi, e)
	}
	return fi, lits
}

// literal checks one literal against the field's type. Integer fields take
// integer numbers with at most one sign; string fields take string
// literals; published takes an RFC 3339 (or date-only) string literal.
func (c *checker) literal(fi fieldInfo, e sqlagg.Expr) literal {
	sign := int64(1)
	if u, ok := e.(*sqlagg.Unary); ok && fi.typ == ftInt && (u.Op == "-" || u.Op == "+") {
		if u.Op == "-" {
			sign = -1
		}
		e = u.X
	}
	var v value.Value
	if lit, ok := e.(*sqlagg.Literal); ok {
		v = lit.Val
	}
	s, isStr := v.AsString()
	switch {
	case fi.typ == ftInt && v.Kind() == value.KindInt:
		n, _ := v.AsInt()
		return literal{typ: ftInt, i: sign * n}
	case fi.typ == ftInt:
		c.fail(e, "%s requires an integer literal, found %s", fi.name, e)
	case !isStr && fi.typ == ftTime:
		c.fail(e, "%s requires a timestamp string literal, found %s", fi.name, e)
	case !isStr:
		c.fail(e, "%s requires a string literal, found %s", fi.name, e)
	case fi.typ == ftTime:
		ts, err := parseTimeLiteral(s)
		if err != nil {
			c.fail(e, "%s: %v", fi.name, err)
		}
		return literal{typ: ftTime, t: ts}
	default:
		return literal{typ: ftString, s: s}
	}
	return literal{}
}

func parseTimeLiteral(s string) (time.Time, error) {
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("%q is not an RFC 3339 timestamp or YYYY-MM-DD date", s)
}
