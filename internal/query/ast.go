package query

import (
	"strings"
	"time"

	"newswire/internal/sqlagg"
	"newswire/internal/value"
)

// expr is one node of the parsed predicate. Every node renders itself
// canonically (append), evaluates exactly against a metadata row (match),
// and contributes a sound routing cover (cover, signature.go).
type expr interface {
	append(sb *strings.Builder)
	match(row value.Map) bool
	cover() Cover
}

// boolLit is a TRUE/FALSE literal predicate.
type boolLit bool

func (b boolLit) append(sb *strings.Builder) {
	if b {
		sb.WriteString("TRUE")
	} else {
		sb.WriteString("FALSE")
	}
}

func (b boolLit) match(value.Map) bool { return bool(b) }

// binExpr is AND (or=false) or OR (or=true).
type binExpr struct {
	or   bool
	l, r expr
}

func (e *binExpr) append(sb *strings.Builder) {
	sb.WriteByte('(')
	e.l.append(sb)
	if e.or {
		sb.WriteString(" OR ")
	} else {
		sb.WriteString(" AND ")
	}
	e.r.append(sb)
	sb.WriteByte(')')
}

func (e *binExpr) match(row value.Map) bool {
	if e.or {
		return e.l.match(row) || e.r.match(row)
	}
	return e.l.match(row) && e.r.match(row)
}

// notExpr is logical negation.
type notExpr struct{ x expr }

func (e *notExpr) append(sb *strings.Builder) {
	sb.WriteString("(NOT ")
	e.x.append(sb)
	sb.WriteByte(')')
}

func (e *notExpr) match(row value.Map) bool { return !e.x.match(row) }

// cmpExpr is field op literal, op one of = != < <= > >=.
type cmpExpr struct {
	f   fieldInfo
	op  string
	lit literal
}

func (e *cmpExpr) append(sb *strings.Builder) {
	sb.WriteString(e.f.name)
	sb.WriteByte(' ')
	sb.WriteString(e.op)
	sb.WriteByte(' ')
	e.lit.append(sb)
}

func (e *cmpExpr) match(row value.Map) bool {
	switch e.f.typ {
	case ftStrings:
		elems, ok := row[e.f.name].RawStrings()
		if !ok {
			return false
		}
		// Existential: = is "some element equals", != its negation.
		for _, s := range elems {
			if s == e.lit.s {
				return e.op == "="
			}
		}
		return e.op == "!="
	case ftString:
		s, ok := row[e.f.name].AsString()
		if !ok {
			return false
		}
		if e.op == "=" {
			return s == e.lit.s
		}
		return s != e.lit.s
	case ftInt:
		n, ok := row[e.f.name].AsInt()
		if !ok {
			return false
		}
		return cmpOrdered(e.op, compareInt(n, e.lit.i))
	case ftTime:
		t, ok := row[e.f.name].AsTime()
		if !ok {
			return false
		}
		return cmpOrdered(e.op, compareTime(t, e.lit.t))
	}
	return false
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareTime(a, b time.Time) int {
	switch {
	case a.Before(b):
		return -1
	case a.After(b):
		return 1
	default:
		return 0
	}
}

func cmpOrdered(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default: // ">="
		return c >= 0
	}
}

// inExpr is field [NOT] IN (lits).
type inExpr struct {
	f    fieldInfo
	lits []literal
	neg  bool
}

func (e *inExpr) append(sb *strings.Builder) {
	sb.WriteString(e.f.name)
	if e.neg {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	for i, lit := range e.lits {
		if i > 0 {
			sb.WriteString(", ")
		}
		lit.append(sb)
	}
	sb.WriteByte(')')
}

func (e *inExpr) match(row value.Map) bool {
	hit := false
	switch e.f.typ {
	case ftStrings:
		elems, ok := row[e.f.name].RawStrings()
		if !ok {
			return false
		}
	scan:
		for _, s := range elems {
			for _, lit := range e.lits {
				if s == lit.s {
					hit = true
					break scan
				}
			}
		}
	case ftString:
		s, ok := row[e.f.name].AsString()
		if !ok {
			return false
		}
		for _, lit := range e.lits {
			if s == lit.s {
				hit = true
				break
			}
		}
	case ftInt:
		n, ok := row[e.f.name].AsInt()
		if !ok {
			return false
		}
		for _, lit := range e.lits {
			if n == lit.i {
				hit = true
				break
			}
		}
	case ftTime:
		t, ok := row[e.f.name].AsTime()
		if !ok {
			return false
		}
		for _, lit := range e.lits {
			if t.Equal(lit.t) {
				hit = true
				break
			}
		}
	}
	return hit != e.neg
}

// likeExpr is field [NOT] LIKE 'pattern' with SQL % and _ wildcards.
type likeExpr struct {
	f       fieldInfo
	pattern string
	neg     bool
}

func (e *likeExpr) append(sb *strings.Builder) {
	sb.WriteString(e.f.name)
	if e.neg {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" LIKE ")
	quoteString(sb, e.pattern)
}

func (e *likeExpr) match(row value.Map) bool {
	hit := false
	if e.f.typ == ftStrings {
		elems, ok := row[e.f.name].RawStrings()
		if !ok {
			return false
		}
		for _, s := range elems {
			if sqlagg.LikeMatch(e.pattern, s) {
				hit = true
				break
			}
		}
	} else {
		s, ok := row[e.f.name].AsString()
		if !ok {
			return false
		}
		hit = sqlagg.LikeMatch(e.pattern, s)
	}
	return hit != e.neg
}

// betweenExpr is field [NOT] BETWEEN lo AND hi (inclusive both ends).
type betweenExpr struct {
	f      fieldInfo
	lo, hi literal
	neg    bool
}

func (e *betweenExpr) append(sb *strings.Builder) {
	sb.WriteString(e.f.name)
	if e.neg {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" BETWEEN ")
	e.lo.append(sb)
	sb.WriteString(" AND ")
	e.hi.append(sb)
}

func (e *betweenExpr) match(row value.Map) bool {
	hit := false
	if e.f.typ == ftInt {
		n, ok := row[e.f.name].AsInt()
		if !ok {
			return false
		}
		hit = n >= e.lo.i && n <= e.hi.i
	} else { // ftTime
		t, ok := row[e.f.name].AsTime()
		if !ok {
			return false
		}
		hit = !t.Before(e.lo.t) && !t.After(e.hi.t)
	}
	return hit != e.neg
}

// Match evaluates the predicate exactly against an item-metadata row
// (pubsub.ItemMetadataRow's shape). A missing or mistyped field makes the
// atom reading it false, negated forms included.
func (p *Predicate) Match(row value.Map) bool { return p.expr.match(row) }
