package query

import (
	"sort"
	"strconv"

	"newswire/internal/bloom"
	"newswire/internal/news"
)

// Routing dimensions. A compiled signature covers three dimensions of an
// item — its subjects, its publisher, and its urgency — each hashed into
// the shared Bloom bit space under a namespaced key. A dimension the
// predicate does not constrain sets its wildcard key instead, so the
// forwarding test ("some subject key present OR the subject wildcard,
// AND the publisher key OR its wildcard, AND the urgency key OR its
// wildcard") stays a pure conjunction over independently-sound covers.

// Wildcard keys, one per dimension. "*" cannot start a subject,
// publisher, or urgency key, so wildcards never collide with real values
// at the key level (Bloom collisions remain possible and are sound:
// they only widen the cover).
const (
	WildSubject   = "*s"
	WildPublisher = "*p"
	WildUrgency   = "*u"
)

// Key prefixes: the Bloom key of a dimension value is its dimension's
// prefix followed by the value's text — an urgency's is UrgencyText. A
// hasher that takes a key in parts (bloom.AppendPositions) hashes the
// prefix and the text without building the key.
const (
	SubjectPrefix   = "s:"
	PublisherPrefix = "p:"
	UrgencyPrefix   = "u:"
)

// UrgencyText is an urgency value's text in its Bloom key: decimal.
// strconv.Itoa returns a constant below 100, so the urgency scale
// allocates nothing.
func UrgencyText(urgency int) string { return strconv.Itoa(urgency) }

// SubjectKey is the Bloom key of one subject value.
func SubjectKey(subject string) string { return SubjectPrefix + subject }

// PublisherKey is the Bloom key of one publisher value.
func PublisherKey(publisher string) string { return PublisherPrefix + publisher }

// UrgencyKey is the Bloom key of one urgency value.
func UrgencyKey(urgency int) string { return UrgencyPrefix + UrgencyText(urgency) }

// strCover is a string dimension's cover: Top (unconstrained) or a
// finite set of values that can satisfy the predicate.
type strCover struct {
	top  bool
	vals []string // sorted, unique; empty non-top = dimension unsatisfiable
}

func topStr() strCover           { return strCover{top: true} }
func oneStr(v string) strCover   { return strCover{vals: []string{v}} }
func setStr(v []string) strCover { return strCover{vals: sortUnique(v)} }

func sortUnique(v []string) []string {
	out := append([]string(nil), v...)
	sort.Strings(out)
	n := 0
	for i, s := range out {
		if i == 0 || s != out[n-1] {
			out[n] = s
			n++
		}
	}
	return out[:n]
}

// union is the OR rule: any value either side admits.
func (a strCover) union(b strCover) strCover {
	if a.top || b.top {
		return topStr()
	}
	return setStr(append(append([]string(nil), a.vals...), b.vals...))
}

// intersect is the AND rule for single-valued dimensions (publisher):
// the row's one value must satisfy both sides, so it lies in both covers.
func (a strCover) intersect(b strCover) strCover {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	var out []string
	i, j := 0, 0
	for i < len(a.vals) && j < len(b.vals) {
		switch {
		case a.vals[i] == b.vals[j]:
			out = append(out, a.vals[i])
			i++
			j++
		case a.vals[i] < b.vals[j]:
			i++
		default:
			j++
		}
	}
	return strCover{vals: out}
}

// tighter is the AND rule for the multi-valued subjects dimension.
// Intersection would be unsound there: subjects = 'a' AND subjects = 'b'
// is satisfied by an item carrying both, yet {a} ∩ {b} = ∅ would never
// forward it. Each side's cover alone is sound (its own constraint holds
// under the conjunction, so its witness subject is in its cover), so
// take whichever non-top side is smaller.
func (a strCover) tighter(b strCover) strCover {
	switch {
	case a.top:
		return b
	case b.top:
		return a
	case len(b.vals) < len(a.vals):
		return b
	default:
		return a
	}
}

// urgMask is the urgency dimension's cover as a bitmask over the finite
// domain 0..news.UrgencyMax. The domain being finite means every urgency
// atom — negations and ranges included — has an exact mask.
type urgMask uint16

const urgAll = urgMask(1<<(news.UrgencyMax+1)) - 1

func urgRange(lo, hi int64) urgMask {
	if lo < 0 {
		lo = 0
	}
	if hi > news.UrgencyMax {
		hi = news.UrgencyMax
	}
	var m urgMask
	for u := lo; u <= hi; u++ {
		m |= 1 << uint(u)
	}
	return m
}

// Cover is a predicate's per-dimension routing cover. Invariant (the
// soundness property the property test enforces): if the predicate
// matches an item, then some item subject is in Subs (or Subs is top),
// the item's publisher is in Pubs (or top), and the item's urgency bit
// is in Urg.
type Cover struct {
	Subs strCover
	Pubs strCover
	Urg  urgMask
}

func topCover() Cover { return Cover{Subs: topStr(), Pubs: topStr(), Urg: urgAll} }

func (b boolLit) cover() Cover {
	if b {
		return topCover()
	}
	// FALSE matches nothing; an all-empty cover never forwards, which is
	// vacuously sound.
	return Cover{}
}

func (e *binExpr) cover() Cover {
	l, r := e.l.cover(), e.r.cover()
	if e.or {
		return Cover{
			Subs: l.Subs.union(r.Subs),
			Pubs: l.Pubs.union(r.Pubs),
			Urg:  l.Urg | r.Urg,
		}
	}
	return Cover{
		Subs: l.Subs.tighter(r.Subs),
		Pubs: l.Pubs.intersect(r.Pubs),
		Urg:  l.Urg & r.Urg,
	}
}

// cover of NOT widens to top: the complement of a finite cover is not
// finitely coverable for string dimensions, and conservative widening
// keeps the signature sound. Urgency-only negations written at the atom
// level (urgency != 3, urgency NOT IN, NOT BETWEEN) keep exact masks —
// they are compiled by their atoms, not through here.
func (e *notExpr) cover() Cover { return topCover() }

func (e *cmpExpr) cover() Cover {
	c := topCover()
	switch e.f.name {
	case "subjects":
		if e.op == "=" {
			c.Subs = oneStr(e.lit.s)
		}
	case "publisher":
		if e.op == "=" {
			c.Pubs = oneStr(e.lit.s)
		}
	case "urgency":
		u := e.lit.i
		switch e.op {
		case "=":
			c.Urg = urgRange(u, u)
		case "!=":
			c.Urg = urgAll &^ urgRange(u, u)
		case "<":
			c.Urg = urgRange(0, u-1)
		case "<=":
			c.Urg = urgRange(0, u)
		case ">":
			c.Urg = urgRange(u+1, news.UrgencyMax)
		case ">=":
			c.Urg = urgRange(u, news.UrgencyMax)
		}
	}
	return c
}

func (e *inExpr) cover() Cover {
	c := topCover()
	switch e.f.name {
	case "subjects", "publisher":
		if e.neg {
			return c
		}
		vals := make([]string, len(e.lits))
		for i, lit := range e.lits {
			vals[i] = lit.s
		}
		if e.f.name == "subjects" {
			c.Subs = setStr(vals)
		} else {
			c.Pubs = setStr(vals)
		}
	case "urgency":
		var m urgMask
		for _, lit := range e.lits {
			m |= urgRange(lit.i, lit.i)
		}
		if e.neg {
			m = urgAll &^ m
		}
		c.Urg = m
	}
	return c
}

func (e *likeExpr) cover() Cover {
	c := topCover()
	if e.neg || hasWildcard(e.pattern) {
		return c
	}
	// A wildcard-free pattern is an equality test.
	switch e.f.name {
	case "subjects":
		c.Subs = oneStr(e.pattern)
	case "publisher":
		c.Pubs = oneStr(e.pattern)
	}
	return c
}

func hasWildcard(pattern string) bool {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '%' || pattern[i] == '_' {
			return true
		}
	}
	return false
}

func (e *betweenExpr) cover() Cover {
	c := topCover()
	if e.f.name == "urgency" {
		m := urgRange(e.lo.i, e.hi.i)
		if e.neg {
			m = urgAll &^ m
		}
		c.Urg = m
	}
	return c
}

// Signature is the compiled coarse routing form of a predicate: the
// values (or wildcards) whose Bloom keys the leaf row advertises.
type Signature struct {
	// AnySubject set means the subject dimension is unconstrained;
	// otherwise Subjects lists every subject value that can satisfy the
	// predicate (sorted, possibly empty = never forwards).
	AnySubject bool
	Subjects   []string
	// AnyPublisher/Publishers: same for the publisher dimension.
	AnyPublisher bool
	Publishers   []string
	// AnyUrgency/Urgencies: same for the urgency dimension (values within
	// 0..news.UrgencyMax).
	AnyUrgency bool
	Urgencies  []int
}

// Compile lowers the predicate to its routing signature. The signature
// is sound — it admits every item the exact evaluator can match — and
// conservative: ranges over urgency enumerate the finite domain exactly,
// while negations and wildcard patterns over string dimensions widen to
// the dimension wildcard.
func (p *Predicate) Compile() Signature {
	c := p.expr.cover()
	sig := Signature{
		AnySubject:   c.Subs.top,
		AnyPublisher: c.Pubs.top,
	}
	if !c.Subs.top {
		sig.Subjects = append([]string(nil), c.Subs.vals...)
	}
	if !c.Pubs.top {
		sig.Publishers = append([]string(nil), c.Pubs.vals...)
	}
	if c.Urg == urgAll {
		sig.AnyUrgency = true
	} else {
		for u := 0; u <= news.UrgencyMax; u++ {
			if c.Urg&(1<<uint(u)) != 0 {
				sig.Urgencies = append(sig.Urgencies, u)
			}
		}
	}
	return sig
}

// SubjectsSignature is the signature of a plain subject-set subscription
// (Subscribe without a predicate): those subjects, any publisher, any
// urgency.
func SubjectsSignature(subjects []string) Signature {
	return Signature{
		Subjects:     sortUnique(subjects),
		AnyPublisher: true,
		AnyUrgency:   true,
	}
}

// Fill adds the signature's keys to a Bloom filter: each dimension
// contributes its value keys, or its wildcard key when unconstrained.
func (s Signature) Fill(f *bloom.Filter) {
	if s.AnySubject {
		f.Add(WildSubject)
	}
	for _, subj := range s.Subjects {
		f.Add(SubjectKey(subj))
	}
	if s.AnyPublisher {
		f.Add(WildPublisher)
	}
	for _, pub := range s.Publishers {
		f.Add(PublisherKey(pub))
	}
	if s.AnyUrgency {
		f.Add(WildUrgency)
	}
	for _, u := range s.Urgencies {
		f.Add(UrgencyKey(u))
	}
}
