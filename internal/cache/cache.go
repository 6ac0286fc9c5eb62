// Package cache implements the end-system message cache of paper §9: news
// items are delivered into a cache that feeds the applications; automatic
// cache management garbage-collects and fuses revisions based on item
// metadata; and the same cache serves end-to-end reliability (replay after
// forwarding-node failures) and limited state transfer to joining
// participants. It is also the node's one record of the items it has seen:
// the multicast router's dedup marks and the node's delivery count.
package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"

	"newswire/internal/trace"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// The table's two lifetimes. keyWindow bounds the keys remembered: the
// last keyWindow keys touched. A key whose envelope is held outlives it,
// without its routing marks. envelopeCap bounds the envelopes held; the
// oldest-received are evicted first.
const (
	keyWindow   = 8192
	envelopeCap = 1024
)

// Config configures a Cache.
type Config struct {
	// Clock stamps the cache's dedup spans. Required.
	Clock vtime.Clock
	// FuseRevisions keeps only the newest revision of each item series,
	// fusing superseded revisions away on arrival (§9's "fused or
	// aggregated into a more compact form").
	FuseRevisions bool
	// Tracer, when non-nil, receives a dedup-drop span for every duplicate
	// or superseded envelope the cache suppresses. TraceNode names this
	// node in those spans (typically the transport address).
	Tracer    trace.Recorder
	TraceNode string
}

// Stats counts cache activity.
type Stats struct {
	Puts       int64
	Duplicates int64
	Fused      int64
	Evicted    int64
}

// entry is what the node knows about one item key, held by value.
type entry struct {
	zones []string // the zones the router routed the item for
	marks mark
	env   *wire.ItemEnvelope // the kept envelope, until evicted or fused away
}

type mark uint8

const (
	handed  mark = 1 << iota // the router passed the item to its Deliver callback
	stored                   // ingested once; a later copy is a duplicate
	counted                  // counted as delivered
	out                      // pushed out of the key window; goes with its envelope
)

// slot is one kept envelope in the eviction order, by insertion; a slot
// whose envelope was fused away has a nil env.
type slot struct {
	seq int64
	env *wire.ItemEnvelope
}

// Cache is a node's item table: an entry per item key touched, with its
// marks and, while held, its envelope. Keys outlive envelopes, so a copy
// of an evicted item is still a duplicate; the item lookups see only held
// envelopes. The table keeps the envelope it is given, shared read-only
// (wire.ItemEnvelope): a received item is stored as it was decoded. It is
// safe for concurrent use.
type Cache struct {
	cfg      Config
	capacity int // envelopeCap; package tests lower it

	mu      sync.Mutex
	entries map[string]entry // item key -> entry
	// series maps a series key to its newest revision, for as long as that
	// revision's entry is in entries; with fusion on, an older revision is
	// a duplicate while the record lives.
	series map[string]int
	window []string // the last keyWindow keys touched, oldest first
	order  []slot   // envelope insertion order, for eviction
	held   int      // envelopes held
	stats  Stats
	seq    int64
}

// New validates cfg and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("cache: clock required")
	}
	return &Cache{
		cfg:      cfg,
		capacity: envelopeCap,
		entries:  make(map[string]entry),
		series:   make(map[string]int),
	}, nil
}

// getLocked returns key's entry; a new key, which the caller stores, takes
// the window's end.
func (c *Cache) getLocked(key string) entry {
	if e, ok := c.entries[key]; ok {
		return e
	}
	c.window = append(c.window, key)
	for len(c.window) > keyWindow {
		old := c.window[0]
		c.window[0], c.window = "", c.window[1:]
		if e := c.entries[old]; e.env == nil {
			c.forgetLocked(old)
		} else {
			c.entries[old] = entry{marks: e.marks&(stored|counted) | out, env: e.env}
		}
	}
	return entry{}
}

// forgetLocked deletes key's entry, and the series record that names it.
func (c *Cache) forgetLocked(key string) {
	delete(c.entries, key)
	if !c.cfg.FuseRevisions {
		return
	}
	if i := lastHash(key); i >= 0 {
		if rev, err := strconv.Atoi(key[i+1:]); err == nil && c.series[key[:i]] == rev {
			delete(c.series, key[:i])
		}
	}
}

// dropLocked releases key's envelope, and the key when it is out of the
// window. The caller clears the envelope's slot.
func (c *Cache) dropLocked(key string, e entry) {
	if e.marks&out != 0 {
		c.forgetLocked(key)
	} else {
		e.env = nil
		c.entries[key] = e
	}
	c.held--
}

// MarkRouted records that the node routes key for zone and reports whether
// it had not before: each (item, zone) pair is routed once.
func (c *Cache) MarkRouted(key, zone string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.getLocked(key)
	if slices.Contains(e.zones, zone) {
		return false
	}
	e.zones = append(e.zones, zone)
	c.entries[key] = e
	return true
}

// MarkHanded records that the router hands key to the application and
// reports whether it had not before.
func (c *Cache) MarkHanded(key string) bool { return c.mark(key, handed) }

// Count records that the node counted key as delivered and reports whether
// it had not before.
func (c *Cache) Count(key string) bool { return c.mark(key, counted) }

func (c *Cache) mark(key string, m mark) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.getLocked(key)
	if e.marks&m != 0 {
		return false
	}
	e.marks |= m
	c.entries[key] = e
	return true
}

// Put stores a copy of env; see Keep.
func (c *Cache) Put(env wire.ItemEnvelope) bool { return c.Keep(&env) }

// Keep stores env itself, which from then on nobody writes. It returns
// false when the envelope is a duplicate (stored before, even if since
// evicted, or — with revision fusion — superseded by a revision whose entry
// the table still holds); true means the item is new to this node. Keep
// enforces the envelope cap immediately.
func (c *Cache) Keep(env *wire.ItemEnvelope) bool {
	key := env.Key()
	seriesKey := key[:lastHash(key)] // the key is the series key, '#', the revision

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Puts++

	e, known := c.entries[key]
	newest, inSeries := c.series[seriesKey]
	superseded := c.cfg.FuseRevisions && inSeries && env.Revision <= newest
	if e.env != nil || superseded || e.marks&stored != 0 {
		c.stats.Duplicates++
		if superseded && e.env == nil {
			c.traceDropLocked(key, "cache-superseded") // fused away
		} else {
			c.traceDropLocked(key, "cache-dup")
		}
		return false
	}
	if c.cfg.FuseRevisions && inSeries {
		// Newer revision: fuse the older one out.
		oldKey := seriesKey + "#" + strconv.Itoa(newest)
		if old := c.entries[oldKey]; old.env != nil {
			if i := slices.IndexFunc(c.order, func(s slot) bool { return s.env == old.env }); i >= 0 {
				c.order[i].env = nil
			}
			c.dropLocked(oldKey, old)
			c.stats.Fused++
		}
	}

	if !known {
		e = c.getLocked(key)
	}
	if c.cfg.FuseRevisions {
		c.series[seriesKey] = env.Revision
	}
	c.seq++
	e.marks |= stored
	e.env = env
	c.entries[key] = e
	c.held++
	c.order = append(c.order, slot{seq: c.seq, env: env})
	c.enforceCapLocked()
	return true
}

// traceDropLocked emits a dedup-drop span when a tracer is attached. The
// nil check is the entire cost of the disabled path. Called with c.mu
// held; the recorders never call back into the cache, so no lock cycle.
func (c *Cache) traceDropLocked(key, note string) {
	if c.cfg.Tracer == nil {
		return
	}
	c.cfg.Tracer.Record(trace.Span{
		Kind: trace.KindDedupDrop, Key: key, TraceID: trace.DeriveTraceID(key),
		Node: c.cfg.TraceNode, At: c.cfg.Clock.Now(), Note: note,
	})
}

// Has reports whether the exact envelope key is cached. With revision
// fusion, a superseded revision also counts as present (it was fused)
// while the series record lives.
func (c *Cache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key].env != nil {
		return true
	}
	if c.cfg.FuseRevisions {
		if i := lastHash(key); i >= 0 {
			if rev, err := strconv.Atoi(key[i+1:]); err == nil {
				if newest, ok := c.series[key[:i]]; ok && rev <= newest {
					return true
				}
			}
		}
	}
	return false
}

func lastHash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '#' {
			return i
		}
	}
	return -1
}

// Get returns the cached envelope for key.
func (c *Cache) Get(key string) (wire.ItemEnvelope, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if env := c.entries[key].env; env != nil {
		return *env, true
	}
	return wire.ItemEnvelope{}, false
}

// Latest returns the newest cached revision of a series
// ("publisher/itemID").
func (c *Cache) Latest(seriesKey string) (wire.ItemEnvelope, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *wire.ItemEnvelope
	for _, s := range c.order {
		if s.env == nil || s.env.Publisher+"/"+s.env.ItemID != seriesKey {
			continue
		}
		if best == nil || s.env.Revision > best.Revision {
			best = s.env
		}
	}
	if best == nil {
		return wire.ItemEnvelope{}, false
	}
	return *best, true
}

// Len returns the number of cached envelopes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}

// Keys returns the number of item keys the table remembers, with or
// without an envelope.
func (c *Cache) Keys() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Since returns up to max envelopes published at or after t (all of them
// when max <= 0), optionally restricted to items matching any of the given
// subjects, ordered by publication time. truncated reports whether max cut
// the result short. It is the local form of the state-transfer query.
func (c *Cache) Since(t time.Time, subjects []string, max int) (envs []wire.ItemEnvelope, truncated bool) {
	return c.SinceExcept(t, subjects, 0, nil, max)
}

// Have lists what the cache holds from t on, in the form a state request
// carries it (wire.StateRequest.Have): the wire.ItemHash under salt of
// every cached envelope key published at or after t, ascending. Nil when
// there is nothing to list.
func (c *Cache) Have(t time.Time, salt uint64) []uint64 {
	c.mu.Lock()
	n := 0
	for _, s := range c.order {
		if s.env != nil && !s.env.Published.Before(t) {
			n++
		}
	}
	if n == 0 {
		c.mu.Unlock()
		return nil
	}
	have := make([]uint64, 0, n)
	for _, s := range c.order {
		if s.env != nil && !s.env.Published.Before(t) {
			have = append(have, wire.ItemHash(salt, s.env.Key()))
		}
	}
	c.mu.Unlock()
	slices.Sort(have)
	return have
}

// SinceExcept is Since without the envelopes a requester already holds:
// have is the requester's Have list under salt, and every envelope whose
// salted key hash is on it is left out before max is applied, so a
// truncated transfer continues where the last one stopped once the
// requester lists what arrived. This is the state-transfer query (§9):
// joining nodes, recovering subscribers and item anti-entropy run it on a
// peer. have must be ascending; out of order it only makes the search miss
// entries, which sends an envelope the requester has and never hides one.
func (c *Cache) SinceExcept(t time.Time, subjects []string, salt uint64, have []uint64, max int) (envs []wire.ItemEnvelope, truncated bool) {
	c.mu.Lock()
	defer c.mu.Unlock() // a released slot is cleared under the lock
	var matched []slot
	for _, s := range c.order {
		if s.env == nil || s.env.Published.Before(t) {
			continue
		}
		if len(subjects) > 0 && !matchesAny(s.env.Subjects, subjects) {
			continue
		}
		if len(have) > 0 {
			if _, found := slices.BinarySearch(have, wire.ItemHash(salt, s.env.Key())); found {
				continue
			}
		}
		matched = append(matched, s)
	}
	if len(matched) == 0 {
		return nil, false
	}

	slices.SortFunc(matched, func(a, b slot) int {
		if byTime := a.env.Published.Compare(b.env.Published); byTime != 0 {
			return byTime
		}
		return cmp.Compare(a.seq, b.seq)
	})
	if max > 0 && len(matched) > max {
		matched = matched[:max]
		truncated = true
	}
	envs = make([]wire.ItemEnvelope, len(matched))
	for i, s := range matched {
		envs[i] = *s.env
	}
	return envs, truncated
}

func matchesAny(have, want []string) bool {
	for _, w := range want {
		for _, h := range have {
			if h == w {
				return true
			}
		}
	}
	return false
}

// enforceCapLocked evicts oldest-inserted envelopes beyond the cap by
// draining the insertion-order queue, skipping envelopes fusion already
// removed.
func (c *Cache) enforceCapLocked() {
	for c.held > c.capacity && len(c.order) > 0 {
		s := c.order[0]
		c.order[0] = slot{}
		c.order = c.order[1:]
		if s.env == nil {
			continue // already fused
		}
		key := s.env.Key()
		c.dropLocked(key, c.entries[key])
		c.stats.Evicted++
	}
	// Keep the queue from accumulating tombstones indefinitely.
	if len(c.order) > 2*c.held+16 {
		c.order = slices.DeleteFunc(c.order, func(s slot) bool { return s.env == nil })
	}
}

// Scramble is the chaos hook: one draw per key in the window, oldest first,
// and a hit drops the key's routed and handed marks (envelopes and the
// other marks survive). Returns how many keys lost a mark.
func (c *Cache) Scramble(rng *rand.Rand, frac float64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for _, key := range c.window {
		if rng.Float64() >= frac {
			continue
		}
		if e := c.entries[key]; len(e.zones) > 0 || e.marks&handed != 0 {
			dropped++
			c.entries[key] = entry{marks: e.marks &^ handed, env: e.env}
		}
	}
	return dropped
}
