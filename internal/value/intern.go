package value

import (
	"strings"
	"sync"
)

// Attribute-name interning.
//
// A running system handles a tiny, heavily repeated vocabulary of
// attribute names ("addr", "load", "nmembers", "subs", ...), but every
// decoded wire message used to retain its own copy of each name for as
// long as the rows it carried stayed merged into a table. At simulation
// scale that is millions of identical short strings. Interning maps each
// name to one canonical instance.
//
// The table is capped: attribute names are an open set in principle
// (a prefix rule aggregates whatever names rows carry), and an
// adversarial peer must not be able to grow process memory without bound
// by inventing names. Past the cap, Intern degrades to identity.

const maxInterned = 1 << 14

var (
	internMu sync.RWMutex
	interned = make(map[string]string)
)

// Intern returns the canonical instance of s, registering a copy of it if
// the table has room — never s itself, which may view a buffer (a decoded
// row's, DESIGN.md §8 "Row ownership") the table must not keep alive. The
// returned string is always equal to s; past the cap it is s.
func Intern(s string) string { return intern(s, false) }

// InternBytes is Intern for a name still sitting in a decode buffer. A hit
// — every name of every frame once a system has warmed up — allocates
// nothing: the map lookup reads b in place, and only a name not seen
// before is copied out into a string.
func InternBytes(b []byte) string {
	internMu.RLock()
	c, ok := interned[string(b)] // no copy: the compiler reads b for a lookup key
	internMu.RUnlock()
	if ok {
		return c
	}
	return intern(string(b), true)
}

// intern returns the canonical instance of s, registering s itself when
// the caller owns it and a copy when s may view someone else's bytes.
func intern(s string, owned bool) string {
	internMu.RLock()
	c, ok := interned[s]
	full := len(interned) >= maxInterned
	internMu.RUnlock()
	if ok {
		return c
	}
	if full {
		return s
	}
	internMu.Lock()
	defer internMu.Unlock()
	if c, ok := interned[s]; ok {
		return c
	}
	if len(interned) >= maxInterned {
		return s
	}
	if !owned {
		s = strings.Clone(s)
	}
	interned[s] = s
	return s
}
