package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"newswire/internal/vtime"
	"newswire/internal/wire"
)

func env(pub, id string, rev int, published time.Time, subjects ...string) wire.ItemEnvelope {
	if len(subjects) == 0 {
		subjects = []string{"tech/linux"}
	}
	return wire.ItemEnvelope{
		Publisher: pub,
		ItemID:    id,
		Revision:  rev,
		Subjects:  subjects,
		Published: published,
	}
}

func newTestCache(t *testing.T, cfg Config) (*Cache, *vtime.Virtual) {
	t.Helper()
	clock := vtime.NewVirtual()
	cfg.Clock = clock
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, clock
}

// TestNewValidation: a clock is the one required field, and a new cache
// holds envelopeCap envelopes however far its clock advances; the next one
// evicts the oldest.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil clock accepted")
	}
	c, clock := newTestCache(t, Config{})
	for i := 0; i <= envelopeCap; i++ {
		c.Put(env("p", fmt.Sprintf("i%d", i), 0, clock.Now()))
		clock.Advance(time.Hour)
	}
	if c.Len() != envelopeCap || c.Has("p/i0#0") || !c.Has("p/i1#0") {
		t.Fatalf("Len=%d Has(i0)=%v Has(i1)=%v, want %d false true", c.Len(), c.Has("p/i0#0"), c.Has("p/i1#0"), envelopeCap)
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", st.Evicted)
	}
}

func TestPutAndGet(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	e := env("p", "a", 0, clock.Now())
	if !c.Put(e) {
		t.Fatal("first Put returned duplicate")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	got, ok := c.Get("p/a#0")
	if !ok || got.ItemID != "a" {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if !c.Has("p/a#0") {
		t.Fatal("Has = false")
	}
	if c.Has("p/a#1") {
		t.Fatal("Has for absent key = true")
	}
}

func TestPutDuplicate(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	e := env("p", "a", 0, clock.Now())
	c.Put(e)
	if c.Put(e) {
		t.Fatal("duplicate Put returned true")
	}
	st := c.Stats()
	if st.Duplicates != 1 || st.Puts != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRevisionFusion(t *testing.T) {
	c, clock := newTestCache(t, Config{FuseRevisions: true})
	c.Put(env("p", "a", 0, clock.Now()))
	if !c.Put(env("p", "a", 1, clock.Now())) {
		t.Fatal("newer revision rejected")
	}
	// Old revision fused away.
	if _, ok := c.Get("p/a#0"); ok {
		t.Fatal("superseded revision still cached")
	}
	if _, ok := c.Get("p/a#1"); !ok {
		t.Fatal("newest revision missing")
	}
	// Late arrival of a superseded revision is a duplicate.
	if c.Put(env("p", "a", 0, clock.Now())) {
		t.Fatal("late superseded revision accepted")
	}
	// Has considers fused revisions present.
	if !c.Has("p/a#0") {
		t.Fatal("fused revision should count as seen")
	}
	if st := c.Stats(); st.Fused != 1 {
		t.Fatalf("Fused = %d", st.Fused)
	}
}

func TestNoFusionKeepsRevisions(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	c.Put(env("p", "a", 0, clock.Now()))
	c.Put(env("p", "a", 1, clock.Now()))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want both revisions", c.Len())
	}
	if c.Has("p/a#2") {
		t.Fatal("unseen revision reported present without fusion")
	}
}

func TestLatest(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	c.Put(env("p", "a", 0, clock.Now()))
	c.Put(env("p", "a", 2, clock.Now()))
	c.Put(env("p", "b", 5, clock.Now()))
	got, ok := c.Latest("p/a")
	if !ok || got.Revision != 2 {
		t.Fatalf("Latest = %+v, %v", got, ok)
	}
	if _, ok := c.Latest("p/zzz"); ok {
		t.Fatal("Latest for unknown series = true")
	}
}

func TestCapacityEvictsOldest(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	c.capacity = 3
	for i := 0; i < 5; i++ {
		c.Put(env("p", fmt.Sprintf("i%d", i), 0, clock.Now()))
		clock.Advance(24 * time.Hour)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// The two oldest are gone.
	if c.Has("p/i0#0") || c.Has("p/i1#0") {
		t.Fatal("oldest entries not evicted")
	}
	if !c.Has("p/i4#0") {
		t.Fatal("newest entry evicted")
	}
	if st := c.Stats(); st.Evicted != 2 {
		t.Fatalf("Evicted = %d", st.Evicted)
	}
}

// TestGCExpiresByTTL: the cache has no age expiry. An envelope outlives
// any clock advance and leaves only by the cap.
func TestGCExpiresByTTL(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	c.capacity = 2
	c.Put(env("p", "old", 0, clock.Now()))
	clock.Advance(365 * 24 * time.Hour)
	c.Put(env("p", "new", 0, clock.Now()))
	clock.Advance(365 * 24 * time.Hour)
	if !c.Has("p/old#0") || !c.Has("p/new#0") || c.Len() != 2 {
		t.Fatalf("Has(old)=%v Has(new)=%v Len=%d after two years, want both held", c.Has("p/old#0"), c.Has("p/new#0"), c.Len())
	}
	c.Put(env("p", "newest", 0, clock.Now()))
	if c.Has("p/old#0") || !c.Has("p/new#0") {
		t.Fatal("the cap did not evict the oldest envelope")
	}
	if st := c.Stats(); st.Evicted != 1 || st.Fused != 0 {
		t.Fatalf("stats = %+v, want 1 eviction and nothing else gone", st)
	}
}

// TestGCDisabledWithoutTTL: with fusion on, an envelope outlives any clock
// advance and leaves only when a newer revision fuses it.
func TestGCDisabledWithoutTTL(t *testing.T) {
	c, clock := newTestCache(t, Config{FuseRevisions: true})
	c.Put(env("p", "a", 0, clock.Now()))
	clock.Advance(365 * 24 * time.Hour)
	if _, ok := c.Get("p/a#0"); !ok || c.Len() != 1 {
		t.Fatalf("Get(a#0)=%v Len=%d after a year, want the envelope held", ok, c.Len())
	}
	c.Put(env("p", "a", 1, clock.Now()))
	if _, ok := c.Get("p/a#0"); ok || c.Len() != 1 {
		t.Fatalf("Get(a#0)=%v Len=%d after revision 1, want a#0 fused away", ok, c.Len())
	}
	if st := c.Stats(); st.Fused != 1 || st.Evicted != 0 {
		t.Fatalf("stats = %+v, want 1 fusion and no eviction", st)
	}
}

func TestSinceOrderingAndFiltering(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	t0 := clock.Now()
	c.Put(env("p", "late", 0, t0.Add(3*time.Second)))
	c.Put(env("p", "early", 0, t0.Add(1*time.Second)))
	c.Put(env("p", "mid", 0, t0.Add(2*time.Second), "sports/soccer"))
	c.Put(env("p", "ancient", 0, t0.Add(-time.Hour)))

	// All since t0, ordered by publication.
	envs, truncated := c.Since(t0, nil, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	if len(envs) != 3 {
		t.Fatalf("got %d envelopes", len(envs))
	}
	if envs[0].ItemID != "early" || envs[1].ItemID != "mid" || envs[2].ItemID != "late" {
		t.Fatalf("order = %v %v %v", envs[0].ItemID, envs[1].ItemID, envs[2].ItemID)
	}

	// Subject filter.
	envs, _ = c.Since(t0, []string{"sports/soccer"}, 0)
	if len(envs) != 1 || envs[0].ItemID != "mid" {
		t.Fatalf("subject filter = %v", envs)
	}

	// Max with truncation flag.
	envs, truncated = c.Since(t0, nil, 2)
	if len(envs) != 2 || !truncated {
		t.Fatalf("max: %d envelopes, truncated=%v", len(envs), truncated)
	}
}

func TestSinceEmpty(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	envs, truncated := c.Since(clock.Now(), nil, 10)
	if len(envs) != 0 || truncated {
		t.Fatalf("Since on empty cache = %v, %v", envs, truncated)
	}
}

// Property: after Put(env) returns true, Has(env.Key()) is true and Len
// never exceeds the cap.
func TestQuickPutHasAndCapInvariant(t *testing.T) {
	f := func(ids []uint8, maxItems uint8) bool {
		cap := int(maxItems%32) + 1
		clock := vtime.NewVirtual()
		c, err := New(Config{Clock: clock})
		if err != nil {
			return false
		}
		c.capacity = cap
		for _, id := range ids {
			e := env("p", fmt.Sprintf("i%d", id), 0, clock.Now())
			stored := c.Put(e)
			if stored && !c.Has(e.Key()) {
				return false
			}
			if c.Len() > cap {
				return false
			}
			clock.Advance(time.Second)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with fusion on, at most one revision of a series is ever
// cached.
func TestQuickFusionKeepsOneRevision(t *testing.T) {
	f := func(revs []uint8) bool {
		clock := vtime.NewVirtual()
		c, err := New(Config{Clock: clock, FuseRevisions: true})
		if err != nil {
			return false
		}
		for _, r := range revs {
			c.Put(env("p", "story", int(r), clock.Now()))
		}
		return c.Len() <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionSkipsFusedTombstones(t *testing.T) {
	// Fusion removes entries out of insertion order; eviction must skip
	// those tombstones and still evict the right (oldest live) entries.
	c, clock := newTestCache(t, Config{FuseRevisions: true})
	c.capacity = 3
	c.Put(env("p", "a", 0, clock.Now())) // will be fused by rev 1
	c.Put(env("p", "b", 0, clock.Now()))
	c.Put(env("p", "a", 1, clock.Now())) // fuses a#0
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Put(env("p", "c", 0, clock.Now()))
	c.Put(env("p", "d", 0, clock.Now())) // over capacity: evict oldest live = b
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Note Get, not Has: with fusion on, Has remembers seen revisions via
	// the series map even after storage eviction (dedup semantics).
	if _, ok := c.Get("p/b#0"); ok {
		t.Fatal("oldest live entry not evicted")
	}
	for _, k := range []string{"p/a#1", "p/c#0", "p/d#0"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing after eviction", k)
		}
	}
}

func TestEvictionQueueCompaction(t *testing.T) {
	// Heavy fusion must not leave the order queue growing unboundedly.
	c, clock := newTestCache(t, Config{FuseRevisions: true})
	c.capacity = 100
	for rev := 0; rev < 10000; rev++ {
		c.Put(env("p", "hot", rev, clock.Now()))
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 fused entry", c.Len())
	}
}

func TestHaveListsTheWindowUnderTheSalt(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	t0 := clock.Now()
	if have := c.Have(t0, 1); have != nil {
		t.Fatalf("Have on an empty cache = %v, want nil", have)
	}
	c.Put(env("p", "old", 0, t0.Add(-time.Minute)))
	var want []uint64
	for i := 0; i < 40; i++ {
		e := env("p", fmt.Sprintf("it-%d", i), i%3, t0.Add(time.Duration(i)*time.Second))
		c.Put(e)
		want = append(want, wire.ItemHash(77, e.Key()))
	}
	slices.Sort(want)
	have := c.Have(t0, 77)
	if !slices.Equal(have, want) {
		t.Fatalf("Have = %v\nwant %v", have, want)
	}
	if other := c.Have(t0, 78); slices.Equal(other, have) {
		t.Fatal("a different salt produced the same summary")
	}
	if all := c.Have(time.Time{}, 77); len(all) != 41 {
		t.Fatalf("Have since the epoch lists %d entries, want 41", len(all))
	}
	if none := c.Have(t0.Add(time.Hour), 77); none != nil {
		t.Fatalf("Have past the newest item = %v, want nil", none)
	}
}

func TestSinceExceptServesOnlyTheDifference(t *testing.T) {
	peer, clock := newTestCache(t, Config{})
	mine, _ := newTestCache(t, Config{})
	t0 := clock.Now()
	const n = 30
	missing := map[string]bool{}
	for i := 0; i < n; i++ {
		e := env("p", fmt.Sprintf("it-%d", i), 0, t0.Add(time.Duration(i)*time.Second))
		peer.Put(e)
		if i%4 == 1 { // 7 of the 30
			missing[e.ItemID] = true
		} else {
			mine.Put(e)
		}
	}
	const salt = 0xabcdef
	envs, truncated := peer.SinceExcept(t0, nil, salt, mine.Have(t0, salt), 0)
	if truncated || len(envs) != len(missing) {
		t.Fatalf("got %d envelopes (truncated=%v), want the %d missing ones", len(envs), truncated, len(missing))
	}
	for i, e := range envs {
		if !missing[e.ItemID] {
			t.Errorf("served %s, which the requester holds", e.ItemID)
		}
		if i > 0 && e.Published.Before(envs[i-1].Published) {
			t.Errorf("envelope %d out of publication order", i)
		}
	}
	// The subject filter still applies on top of the summary.
	if envs, _ := peer.SinceExcept(t0, []string{"sports/soccer"}, salt, mine.Have(t0, salt), 0); len(envs) != 0 {
		t.Fatalf("subject filter ignored: %d envelopes", len(envs))
	}
	// A summary hashed under another salt matches nothing: everything is
	// served, as if there were no summary. A wrong salt cannot hide items.
	if envs, _ := peer.SinceExcept(t0, nil, salt+1, mine.Have(t0, salt), 0); len(envs) != n {
		t.Fatalf("summary under the wrong salt served %d envelopes, want all %d", len(envs), n)
	}
	// Caught up: nothing to send, and not truncated even with max below
	// the window's size.
	for _, e := range envs {
		mine.Put(e)
	}
	if envs, truncated := peer.SinceExcept(t0, nil, salt, mine.Have(t0, salt), 5); envs != nil || truncated {
		t.Fatalf("caught-up requester got %d envelopes, truncated=%v", len(envs), truncated)
	}
}

// TestSinceExceptTruncationMakesProgress: max applies after the summary, so
// a requester that lists what it received gets the next batch, not the
// same one.
func TestSinceExceptTruncationMakesProgress(t *testing.T) {
	peer, clock := newTestCache(t, Config{})
	mine, _ := newTestCache(t, Config{})
	t0 := clock.Now()
	for i := 0; i < 9; i++ {
		peer.Put(env("p", fmt.Sprintf("it-%d", i), 0, t0.Add(time.Duration(i)*time.Second)))
	}
	for round, wantTruncated := range []bool{true, true, false} {
		salt := uint64(100 + round)
		envs, truncated := peer.SinceExcept(time.Time{}, nil, salt, mine.Have(time.Time{}, salt), 3)
		if len(envs) != 3 || truncated != wantTruncated {
			t.Fatalf("round %d: %d envelopes, truncated=%v; want 3, %v", round, len(envs), truncated, wantTruncated)
		}
		for i, e := range envs {
			if want := fmt.Sprintf("it-%d", 3*round+i); e.ItemID != want {
				t.Fatalf("round %d: envelope %d is %s, want %s", round, i, e.ItemID, want)
			}
			mine.Put(e)
		}
	}
	if mine.Len() != 9 {
		t.Fatalf("requester holds %d of 9 after three rounds", mine.Len())
	}
}

// Property: whatever list arrives as a summary — unsorted, repeated, random
// — SinceExcept serves a subset of what Since serves.
func TestQuickSinceExceptNeverServesMore(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	t0 := clock.Now()
	keys := map[string]bool{}
	for i := 0; i < 50; i++ {
		e := env("p", fmt.Sprintf("it-%d", i), 0, t0.Add(time.Duration(i)*time.Second))
		c.Put(e)
		keys[e.Key()] = true
	}
	f := func(salt uint64, junk []uint64, held []uint8, max uint8) bool {
		have := junk
		for _, i := range held {
			have = append(have, wire.ItemHash(salt, fmt.Sprintf("p/it-%d#0", i%50)))
		}
		envs, _ := c.SinceExcept(t0, nil, salt, have, int(max))
		all, _ := c.Since(t0, nil, 0)
		if len(envs) > len(all) || (max > 0 && len(envs) > int(max)) {
			return false
		}
		for _, e := range envs {
			if !keys[e.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPutAndStateTransfer runs the state-transfer queries against
// a cache that is being filled, the way live nodes do (transport goroutines
// serve requests while deliveries arrive). Meaningful under -race.
func TestConcurrentPutAndStateTransfer(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	c.capacity = 64
	t0 := clock.Now()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				c.Put(env(fmt.Sprintf("p%d", w), fmt.Sprintf("it-%d", i), 0, t0.Add(time.Duration(i)*time.Millisecond)))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				salt := uint64(r*1000 + i)
				have := c.Have(t0, salt)
				if !slices.IsSorted(have) {
					t.Error("Have returned an unsorted summary")
					return
				}
				// Entries may be evicted between the two calls, never
				// added twice: the difference against itself is at most
				// what was put in between.
				if envs, _ := c.SinceExcept(t0, nil, salt, have, 0); len(envs) > 64 {
					t.Errorf("SinceExcept served %d envelopes from a 64-item cache", len(envs))
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestEvictedKeyStaysADuplicate: an envelope evicted by the cap leaves its
// key, with the stored mark, for the key window; so a later copy is a
// duplicate, while the item lookups answer as if it were gone.
func TestEvictedKeyStaysADuplicate(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	c.capacity = 2
	for _, id := range []string{"a", "b", "c"} {
		c.Put(env("p", id, 0, clock.Now()))
	}
	if c.Has("p/a#0") || c.Len() != 2 || c.Keys() != 3 {
		t.Fatalf("Has(a)=%v Len=%d Keys=%d, want false 2 3", c.Has("p/a#0"), c.Len(), c.Keys())
	}
	if envs, _ := c.Since(time.Time{}, nil, 0); len(envs) != 2 {
		t.Fatalf("Since lists %d envelopes, want 2", len(envs))
	}
	if c.Put(env("p", "a", 0, clock.Now())) {
		t.Fatal("an evicted item was stored again")
	}
	if st := c.Stats(); st.Duplicates != 1 || st.Evicted != 1 {
		t.Fatalf("stats = %+v, want 1 duplicate and 1 eviction", st)
	}
}

// TestKeyWindowBoundsKeys drives the real 8,192-key window: the oldest
// key-only entries leave with their marks, while a key whose envelope is
// still held outlives the window without its routing marks, until the
// envelope goes.
func TestKeyWindowBoundsKeys(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	c.capacity = 1
	c.Put(env("p", "kept", 0, clock.Now()))
	c.MarkRouted("p/kept#0", "/", 0)
	c.MarkRouted("p/old#0", "/", 0)
	for i := 0; i < keyWindow; i++ {
		if !c.MarkRouted(fmt.Sprintf("p/r%d#0", i), "/", 0) {
			t.Fatalf("fresh key %d reported routed", i)
		}
	}
	if got := c.Keys(); got != keyWindow+1 {
		t.Fatalf("Keys = %d, want the window plus the held envelope's key", got)
	}
	if !c.MarkRouted("p/old#0", "/", 0) {
		t.Fatal("a key past the window kept its routing mark")
	}
	if !c.MarkRouted("p/kept#0", "/", 0) {
		t.Fatal("a held key past the window kept its routing mark")
	}
	if c.Put(env("p", "kept", 0, clock.Now())) || !c.Has("p/kept#0") {
		t.Fatal("the held envelope was lost with its key's window slot")
	}
	c.Put(env("p", "new", 0, clock.Now())) // evicts kept's envelope
	if c.Has("p/kept#0") || c.Keys() != keyWindow {
		t.Fatalf("Has(kept)=%v Keys=%d after eviction; want false and the window, %d", c.Has("p/kept#0"), c.Keys(), keyWindow)
	}
}

// TestFusionIndexBoundedByTable: every series record names a table entry,
// so a fusing cache that sees more series than its key window holds no
// more series records than entries.
func TestFusionIndexBoundedByTable(t *testing.T) {
	c, clock := newTestCache(t, Config{FuseRevisions: true})
	for i := 0; i < 20000; i++ {
		c.Put(env("p", fmt.Sprintf("s%d", i), 0, clock.Now()))
	}
	if len(c.series) > c.Keys() || c.Keys() > keyWindow+envelopeCap {
		t.Fatalf("%d series records, %d entries; want records <= entries <= %d", len(c.series), c.Keys(), keyWindow+envelopeCap)
	}
	for s, rev := range c.series {
		if _, ok := c.entries[s+"#"+fmt.Sprint(rev)]; !ok {
			t.Fatalf("series record %s#%d names no entry", s, rev)
		}
	}
}

// TestSupersededStaysDuplicateWhileSeriesEntryLives: with fusion on, an
// older revision is a duplicate while the entry of the newest revision
// lives, in the window or held past it, even after the older revision's
// own entry left the window; once the newest revision's entry goes, the
// older one is a key older than the window, new again.
func TestSupersededStaysDuplicateWhileSeriesEntryLives(t *testing.T) {
	c, clock := newTestCache(t, Config{FuseRevisions: true})
	c.capacity = 1
	c.Put(env("p", "a", 0, clock.Now()))
	c.Put(env("p", "a", 1, clock.Now())) // fuses a#0 away
	for i := 0; i < keyWindow-1; i++ {
		c.MarkRouted(fmt.Sprintf("p/r%d#0", i), "/", 0) // a#0's entry leaves the window
	}
	if _, ok := c.entries["p/a#0"]; ok {
		t.Fatal("a#0's entry outlived the window")
	}
	if c.Put(env("p", "a", 0, clock.Now())) || !c.Has("p/a#0") {
		t.Fatal("a superseded revision was stored while its series entry is in the window")
	}
	c.MarkRouted("p/last#0", "/", 0) // a#1's key leaves the window; its envelope is held
	if c.Put(env("p", "a", 0, clock.Now())) {
		t.Fatal("a superseded revision was stored while its series entry is held")
	}
	c.Put(env("p", "b", 0, clock.Now())) // evicts a#1, and its entry with it
	if c.Has("p/a#0") || c.Has("p/a#1") {
		t.Fatal("the series record outlived the entry it names")
	}
	if !c.Put(env("p", "a", 0, clock.Now())) {
		t.Fatal("a revision older than the window was not stored")
	}
}

// TestCountIsIndependentOfStorage: a key counted before it was stored (a
// member's virtual-leaf phase) is stored once and not counted again.
func TestCountIsIndependentOfStorage(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	if !c.Count("p/a#0") || c.Count("p/a#0") {
		t.Fatal("Count did not report the first count only")
	}
	if !c.Put(env("p", "a", 0, clock.Now())) || c.Put(env("p", "a", 0, clock.Now())) {
		t.Fatal("a counted key was not stored exactly once")
	}
	if c.Count("p/a#0") {
		t.Fatal("storing a counted key uncounted it")
	}
}

// TestScrambleDropsOnlyRoutingMarks: a scramble hit forgets the zones
// routed, on the chain and off it, and the handed mark, and nothing else;
// identically seeded scrambles drop as many.
func TestScrambleDropsOnlyRoutingMarks(t *testing.T) {
	build := func() *Cache {
		c, clock := newTestCache(t, Config{})
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("p/i%d#0", i)
			c.MarkRouted(key, "/", 0)
			c.MarkRouted(key, "/r", -1)
			c.MarkHanded(key)
			c.Put(env("p", fmt.Sprintf("i%d", i), 0, clock.Now()))
		}
		return c
	}
	c, twin := build(), build()
	dropped := c.Scramble(rand.New(rand.NewSource(7)), 0.5)
	if twinDropped := twin.Scramble(rand.New(rand.NewSource(7)), 0.5); dropped != twinDropped {
		t.Fatalf("same seed dropped %d and %d", dropped, twinDropped)
	}
	if dropped == 0 || dropped == 64 {
		t.Fatalf("dropped %d of 64 at frac 0.5", dropped)
	}
	checkEntries(t, c)
	routed, toward, handed := 0, 0, 0
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("p/i%d#0", i)
		if c.MarkRouted(key, "/", 0) {
			routed++
		}
		if c.MarkRouted(key, "/r", -1) {
			toward++
		}
		if c.MarkHanded(key) {
			handed++
		}
		if c.Put(env("p", fmt.Sprintf("i%d", i), 0, time.Time{})) {
			t.Fatalf("%s stored again after a scramble", key)
		}
	}
	if routed != dropped || toward != dropped || handed != dropped {
		t.Fatalf("%d routed, %d off-chain and %d handed marks gone, want %d each", routed, toward, handed, dropped)
	}
	if c.Len() != 64 {
		t.Fatalf("Len = %d after a scramble, want 64", c.Len())
	}
}

// checkEntries checks the invariant of the table's routed marks: a scan of
// the entries finds none holding a slice, a map or a string (a routed zone
// is a bit, or a name in toward), and every key in toward names an entry,
// each of its off-chain zones once.
func checkEntries(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		v := reflect.ValueOf(e)
		for i := range v.NumField() {
			switch k := v.Field(i).Kind(); k {
			case reflect.Slice, reflect.Map, reflect.String:
				t.Fatalf("%s's entry holds a %s, %s", key, k, v.Type().Field(i).Name)
			}
		}
	}
	for key, zones := range c.toward {
		if _, ok := c.entries[key]; !ok {
			t.Fatalf("off-chain marks of %s outlived its entry", key)
		}
		for i, z := range zones {
			if slices.Contains(zones[:i], z) {
				t.Fatalf("%s is marked routed toward %s twice", key, z)
			}
		}
	}
}

// TestRoutedDepthsMarkedOnce: every depth of a chain as deep as zone paths
// go is routed once per key, independently of the other depths and of
// other keys, and none of it is kept beside the entry.
func TestRoutedDepthsMarkedOnce(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	chain := []string{"/"}
	for d := 1; d < RoutedDepths; d++ {
		chain = append(chain, strings.Repeat("/z", d))
	}
	for _, key := range []string{"p/a#0", "p/b#0"} {
		for d, zone := range chain {
			if !c.MarkRouted(key, zone, d) {
				t.Fatalf("%s: depth %d reported routed before it was", key, d)
			}
			if c.MarkRouted(key, zone, d) {
				t.Fatalf("%s: depth %d routed twice", key, d)
			}
		}
	}
	if len(c.toward) != 0 {
		t.Fatalf("on-chain marks were kept by name for %d keys", len(c.toward))
	}
	checkEntries(t, c)
}

// TestOffChainTargetsRoutedOnceEach: two remote targets of one key (scoped
// publishes routed toward them) are each routed once, apart from the key's
// chain depths and from other keys. A depth beyond the routed bits is
// marked by name, like an off-chain zone.
func TestOffChainTargetsRoutedOnceEach(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	for _, zone := range []string{"/b/x", "/b/y"} {
		if !c.MarkRouted("p/a#0", zone, -1) {
			t.Fatalf("%s reported routed before it was", zone)
		}
		if c.MarkRouted("p/a#0", zone, -1) {
			t.Fatalf("%s routed twice", zone)
		}
	}
	if !c.MarkRouted("p/a#0", "/", 0) || !c.MarkRouted("p/b#0", "/b/x", -1) {
		t.Fatal("an off-chain mark hid the key's root or another key's target")
	}
	if !c.MarkRouted("p/a#0", "/deep", RoutedDepths) || c.MarkRouted("p/a#0", "/deep", RoutedDepths) {
		t.Fatal("a depth beyond the routed bits was not routed exactly once")
	}
	if got := c.toward["p/a#0"]; !slices.Equal(got, []string{"/b/x", "/b/y", "/deep"}) {
		t.Fatalf("off-chain marks of p/a#0 = %q", got)
	}
	checkEntries(t, c)
}

// TestRoutedMarksSurviveEvictionAndRollover: a key's routed marks, on the
// chain and off it, outlive its envelope's eviction and the window rolling
// on until the key is its oldest. They go with the key as it leaves the
// window, and a key whose envelope is still held leaves them behind there.
func TestRoutedMarksSurviveEvictionAndRollover(t *testing.T) {
	c, clock := newTestCache(t, Config{})
	c.capacity = 1
	routed := func(key string) (onChain, offChain bool) {
		return !c.MarkRouted(key, "/", 0), !c.MarkRouted(key, "/r", -1)
	}
	for _, id := range []string{"a", "b"} {
		key := "p/" + id + "#0"
		c.Put(env("p", id, 0, clock.Now())) // b's evicts a's
		c.MarkRouted(key, "/", 0)
		c.MarkRouted(key, "/r", -1)
	}
	if c.Has("p/a#0") {
		t.Fatal("a's envelope was not evicted")
	}
	if on, off := routed("p/a#0"); !on || !off {
		t.Fatalf("after eviction a's marks: on the chain %v, off it %v; want both", on, off)
	}
	for i := 0; i < keyWindow-2; i++ {
		c.Count(fmt.Sprintf("p/r%d#0", i)) // a is the window's oldest key
	}
	checkEntries(t, c)
	if on, off := routed("p/a#0"); !on || !off {
		t.Fatalf("after the window rolled on, a's marks: on the chain %v, off it %v; want both", on, off)
	}
	c.Count("p/last#0") // a leaves the window
	if _, ok := c.toward["p/a#0"]; ok {
		t.Fatal("a's off-chain marks outlived its entry")
	}
	c.Count("p/last2#0") // b leaves the window; its envelope is held
	if _, ok := c.toward["p/b#0"]; ok || !c.Has("p/b#0") {
		t.Fatal("b's off-chain marks outlived its window slot, or its envelope went with them")
	}
	checkEntries(t, c)
	for _, key := range []string{"p/a#0", "p/b#0"} {
		if on, off := routed(key); on || off {
			t.Fatalf("%s past the window kept its marks: on the chain %v, off it %v", key, on, off)
		}
	}
}
