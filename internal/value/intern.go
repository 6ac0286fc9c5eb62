package value

import "sync"

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

// Intern returns the canonical instance of s, registering it if the
// table has room. The returned string is always equal to s.
func Intern(s string) string {
	internMu.RLock()
	c, ok := interned[s]
	internMu.RUnlock()
	if ok {
		return c
	}
	internMu.Lock()
	defer internMu.Unlock()
	if c, ok := interned[s]; ok {
		return c
	}
	if len(interned) >= maxInterned {
		return s
	}
	interned[s] = s
	return s
}

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
	return Intern(string(b))
}
