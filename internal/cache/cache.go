// Package cache implements the end-system message cache of paper §9: news
// items are delivered into a cache that feeds the applications; automatic
// cache management garbage-collects and fuses revisions based on item
// metadata; and the same cache serves end-to-end reliability (replay after
// forwarding-node failures) and limited state transfer to joining
// participants.
package cache

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"newswire/internal/trace"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// Config configures a Cache.
type Config struct {
	// Clock supplies time for TTL decisions. Required.
	Clock vtime.Clock
	// MaxItems bounds the cache; the oldest-received entries are evicted
	// first. Default 1024.
	MaxItems int
	// TTL expires entries by age since receipt (0 disables age expiry).
	TTL time.Duration
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
	Expired    int64
	Evicted    int64
}

type entry struct {
	env      wire.ItemEnvelope
	received time.Time
	seq      int64
}

// Cache is a bounded store of item envelopes keyed by their unique
// publisher/ID/revision key. It is safe for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry // key -> entry
	series  map[string]int    // series key -> newest revision present
	order   []string          // insertion order, for O(1) amortized eviction
	stats   Stats
	seq     int64
}

// New validates cfg and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("cache: clock required")
	}
	if cfg.MaxItems == 0 {
		cfg.MaxItems = 1024
	}
	if cfg.MaxItems < 0 {
		return nil, fmt.Errorf("cache: negative MaxItems")
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[string]*entry),
		series:  make(map[string]int),
	}, nil
}

// Put stores an envelope. It returns false when the envelope is a
// duplicate (already present, or — with revision fusion on — already
// superseded by a newer revision); true means the item is new to this
// node. Put enforces MaxItems immediately.
func (c *Cache) Put(env wire.ItemEnvelope) bool {
	key := env.Key()
	seriesKey := key[:lastHash(key)] // the key is the series key, '#', the revision

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Puts++

	if _, dup := c.entries[key]; dup {
		c.stats.Duplicates++
		c.traceDropLocked(key, "cache-dup")
		return false
	}
	if c.cfg.FuseRevisions {
		if newest, ok := c.series[seriesKey]; ok {
			if env.Revision <= newest {
				// Superseded revision arriving late: fused away.
				c.stats.Duplicates++
				c.traceDropLocked(key, "cache-superseded")
				return false
			}
			// Newer revision: fuse the older one out.
			oldKey := seriesKey + "#" + strconv.Itoa(newest)
			if _, ok := c.entries[oldKey]; ok {
				delete(c.entries, oldKey)
				c.stats.Fused++
			}
		}
		c.series[seriesKey] = env.Revision
	}

	c.seq++
	c.entries[key] = &entry{env: env, received: c.cfg.Clock.Now(), seq: c.seq}
	c.order = append(c.order, key)
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
// fusion, a superseded revision also counts as present (it was fused).
func (c *Cache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return true
	}
	if c.cfg.FuseRevisions {
		if i := lastHash(key); i >= 0 {
			series := key[:i]
			var rev int
			if _, err := fmt.Sscanf(key[i+1:], "%d", &rev); err == nil {
				if newest, ok := c.series[series]; ok && rev <= newest {
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
	if e, ok := c.entries[key]; ok {
		return e.env, true
	}
	return wire.ItemEnvelope{}, false
}

// Latest returns the newest cached revision of a series
// ("publisher/itemID").
func (c *Cache) Latest(seriesKey string) (wire.ItemEnvelope, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	for _, e := range c.entries {
		if e.env.Publisher+"/"+e.env.ItemID != seriesKey {
			continue
		}
		if best == nil || e.env.Revision > best.env.Revision {
			best = e
		}
	}
	if best == nil {
		return wire.ItemEnvelope{}, false
	}
	return best.env, true
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
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
	for _, e := range c.entries {
		if !e.env.Published.Before(t) {
			n++
		}
	}
	if n == 0 {
		c.mu.Unlock()
		return nil
	}
	have := make([]uint64, 0, n)
	for key, e := range c.entries {
		if !e.env.Published.Before(t) {
			have = append(have, wire.ItemHash(salt, key))
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
	var matched []*entry
	for key, e := range c.entries {
		if e.env.Published.Before(t) {
			continue
		}
		if len(subjects) > 0 && !matchesAny(e.env.Subjects, subjects) {
			continue
		}
		if len(have) > 0 {
			if _, held := slices.BinarySearch(have, wire.ItemHash(salt, key)); held {
				continue
			}
		}
		matched = append(matched, e)
	}
	c.mu.Unlock()
	if len(matched) == 0 {
		return nil, false
	}

	slices.SortFunc(matched, func(a, b *entry) int {
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
	for i, e := range matched {
		envs[i] = e.env
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

// GC expires entries older than TTL (if configured) and returns how many
// were removed. Capacity is enforced on Put, not here.
func (c *Cache) GC() int {
	if c.cfg.TTL <= 0 {
		return 0
	}
	cutoff := c.cfg.Clock.Now().Add(-c.cfg.TTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for key, e := range c.entries {
		if e.received.Before(cutoff) {
			delete(c.entries, key)
			removed++
			c.stats.Expired++
		}
	}
	return removed
}

// enforceCapLocked evicts oldest-inserted entries beyond MaxItems by
// draining the insertion-order queue, skipping keys that fusion or GC
// already removed.
func (c *Cache) enforceCapLocked() {
	for len(c.entries) > c.cfg.MaxItems && len(c.order) > 0 {
		key := c.order[0]
		c.order = c.order[1:]
		if _, ok := c.entries[key]; !ok {
			continue // already fused or expired
		}
		delete(c.entries, key)
		c.stats.Evicted++
	}
	// Keep the queue from accumulating tombstones indefinitely.
	if len(c.order) > 2*len(c.entries)+16 {
		live := make([]string, 0, len(c.entries))
		for _, key := range c.order {
			if _, ok := c.entries[key]; ok {
				live = append(live, key)
			}
		}
		c.order = live
	}
}
