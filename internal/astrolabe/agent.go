package astrolabe

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"newswire/internal/bloom"
	"newswire/internal/metrics"
	"newswire/internal/sqlagg"
	"newswire/internal/transport"
	"newswire/internal/value"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// Well-known attribute names. The default aggregation program and the
// pub/sub layer agree on these.
const (
	// AttrAddr is the transport address of a leaf agent, or the primary
	// contact (least-loaded representative) of an aggregated zone.
	AttrAddr = "addr"
	// AttrLoad is the advertised load used for representative election.
	AttrLoad = "load"
	// AttrReps lists the elected multicast representatives of a zone.
	AttrReps = "reps"
	// AttrMembers counts the leaf nodes under a zone.
	AttrMembers = "nmembers"
	// AttrSubs is the OR-aggregated subscription Bloom filter (§6).
	AttrSubs = "subs"
	// AttrPubs is the roster of publishers known below a zone.
	AttrPubs = "pubs"
	// AttrVirtual marks a template row standing in for a quiescent leaf
	// member that has no running agent behind it (a simulation's virtual
	// leaves, core/virtual.go). Virtual rows are pinned from expiry —
	// nothing reissues them — and are never chosen as gossip or recovery
	// partners, since no agent would answer.
	AttrVirtual = "virt"
)

// Health attribute namespace (DESIGN.md §12). Each node folds a compact
// digest of its own runtime metrics into its leaf row under these
// reserved prefixes, and the prefix rules from HealthRules roll them up
// per zone — so any node answers cluster-wide health questions (total
// drops, merged delivery p99, worst node) from its own replicated root
// table, the paper's aggregation machinery pointed at the system itself.
// The segment after sys$health$ selects the merge operator, so one rule
// per operator covers an open-ended attribute set.
const (
	// HealthPrefix is the reserved namespace for self-monitoring
	// attributes. FingerprintTables excludes everything under it: health
	// counters (retries, drops) legitimately diverge between runs whose
	// delivery content converged — a chaos run and its clean twin — and
	// must not fail the convergence oracle.
	HealthPrefix = "sys$health$"
	// HealthSumPrefix attributes aggregate by numeric sum (counters:
	// drops, retries, failures, member counts).
	HealthSumPrefix = "sys$health$s$"
	// HealthMaxPrefix attributes aggregate by max under value.Compare
	// (high-water marks; lexical max for worst-node election strings).
	HealthMaxPrefix = "sys$health$x$"
	// HealthMinPrefix attributes aggregate by min (stalest refresh time).
	HealthMinPrefix = "sys$health$m$"
	// HealthSketchPrefix attributes hold encoded metrics.Sketch values
	// and aggregate by sketch merge (latency distributions, so quantiles
	// survive aggregation — a plain MAX of per-node p99s would not).
	HealthSketchPrefix = "sys$health$q$"
)

// HealthRules returns the prefix rules that aggregate the sys$health
// namespace up the zone hierarchy. They are installed only on clusters
// that publish health attributes: an agent without them does zero extra
// work, which is what keeps disabled-mode overhead at zero.
func HealthRules() []PrefixRule {
	return []PrefixRule{
		{Prefix: HealthSumPrefix, Op: PrefixSum},
		{Prefix: HealthMaxPrefix, Op: PrefixMax},
		{Prefix: HealthMinPrefix, Op: PrefixMin},
		{Prefix: HealthSketchPrefix, Op: PrefixSketch},
	}
}

// DefaultAggregationSource is the SQL aggregation program installed when
// Config.Aggregation is nil. It computes exactly the summaries the paper
// needs: member counts, the k least-loaded representatives with a primary
// contact, the OR of subscription Bloom filters, and the publisher roster.
const DefaultAggregationSource = `SELECT
	SUM(COALESCE(nmembers, 1)) AS nmembers,
	REPS(3, load, COALESCE(reps, addr)) AS reps,
	MINV(load, addr) AS addr,
	MIN(load) AS load,
	BIT_OR(subs) AS subs,
	UNION(pubs) AS pubs`

// DefaultAggregation returns DefaultAggregationSource, parsed once. Every
// agent without a program of its own shares it, and so shares its pool of
// evaluators (Program.Eval is safe for concurrent use).
func DefaultAggregation() *sqlagg.Program { return defaultAggregation() }

var defaultAggregation = sync.OnceValue(func() *sqlagg.Program {
	return sqlagg.MustParse(DefaultAggregationSource)
})

// PrefixOp is the merge operator a PrefixRule applies.
type PrefixOp int

// Prefix aggregation operators.
const (
	PrefixSum PrefixOp = iota + 1
	// PrefixMin and PrefixMax keep the smallest/largest value under
	// value.Compare semantics: numeric across Int/Float, lexical within
	// strings, chronological within times. Incomparable values keep the
	// accumulator.
	PrefixMin
	PrefixMax
	// PrefixSketch merges encoded metrics.Sketch byte values bucket-wise,
	// so latency distributions aggregate losslessly up the hierarchy.
	PrefixSketch
	// PrefixSubgroup merges encoded bloom signature sets
	// (bloom.MergeSignatureSets): subgroup filters from both sides are
	// concatenated and greedily re-clustered down to the larger side's K,
	// so a zone row summarizes its children's predicate subscriptions as
	// up to K tight subgroup filters instead of one saturated OR (§7,
	// pubsub.ModePredicate).
	PrefixSubgroup
)

// PrefixRule aggregates every attribute whose name starts with Prefix,
// independently per attribute name — a dynamic attribute set a fixed
// SELECT list cannot name. The health digest (HealthRules) and
// ModePredicate's subgroup signature set aggregate this way.
type PrefixRule struct {
	Prefix string
	Op     PrefixOp
}

// DefaultGossipInterval is the Tick cadence assumed when a configuration
// leaves GossipInterval zero.
const DefaultGossipInterval = 2 * time.Second

// gossipFanout is how many partners an agent gossips with per level per
// Tick: one, as in §3; EXPERIMENTS.md "A4" records what more would buy.
const gossipFanout = 1

// Failure-detection timeouts, in gossip intervals.
const (
	// failRounds is how stale a leaf row may get before it is evicted
	// (failure detection, §3).
	failRounds = 10
	// aggFailRounds is the eviction timeout for aggregated zone rows.
	// It must exceed failRounds: when a zone's only elected
	// representative dies, sibling zones stop receiving refreshes until
	// re-election completes (one leaf timeout later), and evicting the
	// sibling row in that window would partition the hierarchy
	// permanently.
	aggFailRounds = 4 * failRounds
)

// Config configures an Agent.
type Config struct {
	// Name is the agent's row name, unique within its leaf zone.
	Name string
	// ZonePath is the leaf zone the agent lives in, e.g. "/usa/ny".
	ZonePath string
	// Transport delivers and receives wire messages. The agent stores
	// Transport.Addr() in its row's addr attribute.
	Transport transport.Transport
	// Clock supplies time (vtime.Real{} for live use, the simulator's
	// virtual clock in experiments).
	Clock vtime.Clock
	// Rand drives gossip partner selection. Required: injecting it keeps
	// simulations deterministic.
	Rand *rand.Rand
	// GossipInterval is the expected time between Tick calls; it scales
	// the failure timeouts. Default 2s.
	GossipInterval time.Duration
	// Aggregation is the zone aggregation program. Default
	// DefaultAggregation().
	Aggregation *sqlagg.Program
	// PrefixRules aggregate dynamically named attributes (see PrefixRule).
	PrefixRules []PrefixRule
	// SignRow, when set, signs rows this agent issues (its own leaf row
	// and aggregates it computes).
	SignRow func(r *wire.RowUpdate)
	// VerifyRow, when set, authenticates rows received in gossip; rows
	// failing verification are discarded.
	VerifyRow func(r *wire.RowUpdate) error
}

// Row is a snapshot of one MIB row, copied out of the agent's internal
// state for callers. Attrs is shared with the immutable stored row and
// must be treated as read-only.
type Row struct {
	Name   string
	Attrs  value.Map
	Issued time.Time
	Owner  string
	Signer string
	Sig    []byte
}

// snapshotRow renders a stored row as a public Row snapshot.
func snapshotRow(r entry) Row {
	return Row{
		Name:   r.Name,
		Attrs:  r.Attrs,
		Issued: r.stamp(),
		Owner:  r.Owner,
		Signer: r.Signer,
		Sig:    r.Sig,
	}
}

// sameAttrs reports whether two attribute maps share the same backing
// storage — the dominant steady-state merge case, where a heartbeat
// re-issue of an unchanged row carries the very map this agent already
// stores. It is a pure fast path for Map.Equal: identical storage implies
// equal content.
func sameAttrs(a, b value.Map) bool {
	return len(a) > 0 && len(a) == len(b) &&
		reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// Stats counts agent activity, for tests and experiment tables.
type Stats struct {
	GossipsSent     int64
	GossipsReceived int64
	RepliesReceived int64
	RowsMerged      int64
	RowsRejected    int64
	RowsExpired     int64
	// GossipBytesSent estimates the wire bytes of all anti-entropy
	// traffic this agent initiated or answered: the sum of
	// wire.Message.EstimateSize over the messages it sent.
	GossipBytesSent int64
	// RowsSent counts full row updates shipped in gossip messages.
	RowsSent int64
	// DigestsSent counts the rows summarized in the zone sections this
	// agent shipped, in digests and in answers to mismatching ones.
	DigestsSent int64
	// StampsSent counts re-issue stamps shipped in delta replies in place
	// of full rows (identical content on both sides, only the issue time
	// lagged, row unsigned).
	StampsSent int64
	// StampsApplied counts stored rows re-stamped to a newer issue time
	// without their attribute bytes crossing the wire — from a peer's
	// stamp, or locally when a digest proves the peer holds the very
	// bytes this agent stores.
	StampsApplied int64
	// AggEvals counts aggregation program evaluations. Dirty-zone
	// tracking exists to keep this from growing when no input changed;
	// tests assert a quiescent Tick adds zero.
	AggEvals int64
}

// entry is one replica's copy of a row: the immutable content, shared by
// pointer with every agent that holds the same row, and this replica's own
// issue stamp. Freshness is the only thing a heartbeat changes, so keeping
// it beside the pointer instead of inside the row makes every re-stamp — a
// peer's stamp, a digest that proves equal bytes, the owner's heartbeat, a
// clean zone's aggregate — a map store that allocates nothing and leaves
// the row shared. Entries live in the table by value, so they are kept
// small: the stamp is stored as the wire carries it, Unix seconds and
// nanoseconds with neither location nor monotonic reading (24 bytes an
// entry, where a time.Time alone is 24).
//
// A signature covers the issue time, so a signed row's stamp is never
// moved: it is always the time its content was signed at, and re-issuing
// it builds and signs a new row (reissueLocked).
type entry struct {
	*wire.SharedRow
	sec  int64 // issue stamp, Unix seconds
	nsec int32 // issue stamp, nanoseconds within the second
}

func newEntry(r *wire.SharedRow, issued time.Time) entry {
	return entry{SharedRow: r, sec: issued.Unix(), nsec: int32(issued.Nanosecond())}
}

// stamp returns the time this replica holds the row as issued at.
func (e entry) stamp() time.Time { return time.Unix(e.sec, int64(e.nsec)).UTC() }

// after reports whether e's stamp is later than o's.
func (e entry) after(o entry) bool { return e.sec > o.sec || e.sec == o.sec && e.nsec > o.nsec }

// table is one replicated zone table. Row content is immutable and shared
// (wire.SharedRow): merging a gossiped row installs the sender's pointer,
// so the table is copy-on-write — writers never modify a stored row, they
// replace the entry that points at it.
//
// Content changes go through put and del, which keep rows in order and
// hash true to them; a write that only moves a stamp goes through set.
type table struct {
	// rows holds the rows in ascending name order. A row's index is its
	// position in every zone section and stamp this agent exchanges.
	rows []entry
	// top is the row with the latest issue stamp, while there are rows;
	// set and del keep it so.
	top entry
	// hash is the table's content hash: the sum of rowHash over its rows.
	// Two tables with equal hash and row count hold the same names with
	// the same attribute bytes, so a peer can read either from its own.
	hash uint64
	// dirty records that the attribute *content* of this table changed
	// (row added, removed, or attributes replaced) since the zone's
	// aggregate was last computed. Timestamp-only refreshes — the
	// steady-state heartbeat traffic — leave it clear, letting
	// recomputeAggregatesLocked re-stamp the aggregate row without
	// re-running the aggregation program.
	dirty bool
	// aggHash is the attrs hash of the aggregate row this agent last
	// computed (or confirmed) for this zone. The re-stamp fast path only
	// trusts a stored aggregate that still matches it: a row mutated
	// behind the agent's back (corruption, a buggy merge) must be
	// recomputed from inputs, never re-stamped and re-signed as-is.
	aggHash uint64
}

// FNV-1a's 64-bit offset basis and prime.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// rowHash is one row's term of a table's content hash: FNV-1a over the
// name, a separator and the attrs hash, put through a 64-bit finalizer so
// that the terms of a table add up without structure. The sum does not
// depend on the order rows were written in and follows a put or del in
// constant time. It is as strong as the per-row hashes it is built from: an
// accidental collision between two different tables needs their differing
// terms to cancel, which for mixed 64-bit terms is as likely as two
// attribute encodings sharing an FNV hash.
func rowHash(name string, attrs uint64) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= 0xff // no name contains it: "ab"+hash never reads as "a"+hash
	h *= prime64
	for i := 0; i < 8; i++ {
		h ^= attrs >> (8 * i) & 0xff
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// find returns the position of the row called name, or the position it
// would take, and whether it is there.
func (t *table) find(name string) (int, bool) {
	return slices.BinarySearchFunc(t.rows, name, func(e entry, name string) int {
		return strings.Compare(e.Name, name)
	})
}

// get returns the row called name.
func (t *table) get(name string) (entry, bool) {
	if i, ok := t.find(name); ok {
		return t.rows[i], true
	}
	return entry{}, false
}

// put stores e, a row that is new to the table or whose content may differ
// from the stored one.
func (t *table) put(e entry) {
	i, ok := t.find(e.Name)
	switch {
	case !ok:
		t.rows = slices.Insert(t.rows, i, e)
		t.hash += rowHash(e.Name, e.AttrsHash())
	case t.rows[i].SharedRow != e.SharedRow:
		// A signed row re-issued with the attributes it had hashes alike.
		if was, is := t.rows[i].AttrsHash(), e.AttrsHash(); was != is {
			t.hash += rowHash(e.Name, is) - rowHash(e.Name, was)
		}
	}
	t.set(i, e)
}

// set stores e at position i, which holds the row of that name and whose
// content the table already accounts for (put has done so, or only its
// stamp moves).
func (t *table) set(i int, e entry) {
	t.rows[i] = e
	switch {
	case len(t.rows) == 1 || !t.top.after(e):
		t.top = e
	case e.Name == t.top.Name:
		t.rescan() // the newest row moved back
	}
}

// del removes the row at position i.
func (t *table) del(i int) {
	name := t.rows[i].Name
	t.hash -= rowHash(name, t.rows[i].AttrsHash())
	t.rows = slices.Delete(t.rows, i, i+1)
	if name == t.top.Name {
		t.rescan()
	}
}

// rescan finds top again, after the row holding it left or moved back.
func (t *table) rescan() {
	t.top = entry{}
	for _, r := range t.rows {
		if t.top.SharedRow == nil || r.after(t.top) {
			t.top = r
		}
	}
}

// newest returns the latest issue stamp in the table.
func (t *table) newest() time.Time {
	if len(t.rows) == 0 {
		return time.Time{}
	}
	return t.top.stamp()
}

// Agent is one Astrolabe participant: it owns a row in its leaf zone,
// replicates the tables of its ancestor chain, gossips them epidemically,
// and recomputes aggregate rows for its chain.
type Agent struct {
	cfg   Config
	name  string
	addr  string
	leaf  string
	chain []string // root-first, ending at leaf zone

	// stampLag is how stale a hash-equal replica must be before a
	// heartbeat stamp (or local re-stamp) refreshes it. Propagating
	// freshness in stampLag jumps rather than every round keeps
	// steady-state anti-entropy traffic near zero; the leaf timeout is 5×
	// this, so the margin before spurious expiry stays wide.
	stampLag time.Duration

	mu sync.Mutex
	// tables holds the replicated zone tables by chain depth: tables[i] is
	// chain[i]'s, the table a section or stamp list of depth i names.
	tables []table
	ownRow *wire.SharedRow // content of the agent's own leaf row
	stats  Stats

	// Scratch of recomputeAggregatesLocked, cleared before it returns so
	// no row stays reachable from it: a zone's rows in input order, their
	// attribute maps, and the merge of one PrefixRule.
	aggRows   []*wire.SharedRow
	aggInputs []value.Map
	merged    map[string]value.Value
}

// NewAgent validates cfg and returns an agent with its own row issued
// (but not yet gossiped — call Tick to start participating).
func NewAgent(cfg Config) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("astrolabe: agent name required")
	}
	if err := ValidateZonePath(cfg.ZonePath); err != nil {
		return nil, err
	}
	if cfg.ZonePath == RootZone {
		return nil, fmt.Errorf("astrolabe: agents must live below the root zone")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("astrolabe: transport required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("astrolabe: clock required")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("astrolabe: rand required")
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = DefaultGossipInterval
	}
	if cfg.Aggregation == nil {
		cfg.Aggregation = DefaultAggregation()
	}

	a := &Agent{
		cfg:      cfg,
		name:     cfg.Name,
		addr:     cfg.Transport.Addr(),
		leaf:     cfg.ZonePath,
		chain:    AncestorChain(cfg.ZonePath),
		stampLag: failRounds * cfg.GossipInterval / 5,
	}
	a.tables = make([]table, len(a.chain))
	for i := range a.tables {
		a.tables[i].dirty = true
	}
	a.setOwnAttrsLocked(value.Map{
		AttrAddr: value.String(a.addr),
		AttrLoad: value.Float(0),
	})
	a.recomputeAggregatesLocked()
	return a, nil
}

// Name returns the agent's row name.
func (a *Agent) Name() string { return a.name }

// Addr returns the agent's transport address.
func (a *Agent) Addr() string { return a.addr }

// ZonePath returns the agent's leaf zone.
func (a *Agent) ZonePath() string { return a.leaf }

// Chain returns the agent's ancestor chain, root-first, ending at its
// leaf zone. The returned slice is shared; do not modify.
func (a *Agent) Chain() []string { return a.chain }

// Stats returns a copy of the agent's activity counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// SetAttr updates one attribute of the agent's own row and re-issues it.
// The agent's row map is copied on write, preserving the immutability of
// previously gossiped maps.
func (a *Agent) SetAttr(name string, v value.Value) {
	a.mu.Lock()
	defer a.mu.Unlock()
	attrs := a.ownRow.Attrs.Clone()
	if v.IsValid() {
		attrs[name] = v
	} else {
		delete(attrs, name)
	}
	a.setOwnAttrsLocked(attrs)
	a.recomputeAggregatesLocked()
}

// SetAttrs updates several attributes at once (one re-issue).
func (a *Agent) SetAttrs(m value.Map) {
	a.mu.Lock()
	defer a.mu.Unlock()
	attrs := a.ownRow.Attrs.Clone()
	for name, v := range m {
		if v.IsValid() {
			attrs[name] = v
		} else {
			delete(attrs, name)
		}
	}
	a.setOwnAttrsLocked(attrs)
	a.recomputeAggregatesLocked()
}

// Attr reads one attribute of the agent's own row.
func (a *Agent) Attr(name string) value.Value {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ownRow.Attrs[name]
}

// setOwnAttrsLocked replaces the agent's own row with a freshly built
// shared row holding attrs (the stored one is immutable and may be
// referenced by every peer that merged it), issued now.
func (a *Agent) setOwnAttrsLocked(attrs value.Map) {
	now := a.cfg.Clock.Now()
	row := &wire.SharedRow{Name: a.name, Attrs: attrs, Owner: a.addr}
	a.signRowLocked(row, a.leaf, now)
	a.ownRow = row
	t := a.tableLocked(a.leaf)
	t.put(newEntry(row, now))
	t.dirty = true
}

// reissueLocked re-issues, at time at and with unchanged content, a row
// this agent owns in zone's table t, and returns the content now stored:
// the heartbeat on the agent's own row and on the aggregates of clean
// zones. It never marks the table dirty. For an unsigned row it moves this
// replica's stamp. A signature covers the issue time, so under SignRow the
// row is rebuilt and signed again, keeping the encoding caches.
func (a *Agent) reissueLocked(t *table, zone string, r *wire.SharedRow, at time.Time) *wire.SharedRow {
	if a.cfg.SignRow != nil {
		old := r
		r = &wire.SharedRow{Name: old.Name, Attrs: old.Attrs, Owner: old.Owner}
		r.AdoptCache(old)
		a.signRowLocked(r, zone, at)
	}
	t.put(newEntry(r, at))
	return r
}

func (a *Agent) signRowLocked(r *wire.SharedRow, zone string, issued time.Time) {
	if a.cfg.SignRow == nil {
		return
	}
	u := wire.RowUpdate{
		Zone:   zone,
		Name:   r.Name,
		Attrs:  r.Attrs,
		Issued: issued,
		Owner:  r.Owner,
	}
	a.cfg.SignRow(&u)
	r.Signer = u.Signer
	r.Sig = u.Sig
}

// tableLocked returns the table of zone, or nil if the agent does not
// replicate it. A zone's depth is its table's index, so the lookup is a
// count of the path's separators and one comparison with the chain.
func (a *Agent) tableLocked(zone string) *table {
	if d := ZoneDepth(zone); d < len(a.chain) && a.chain[d] == zone {
		return &a.tables[d]
	}
	return nil
}

// Table returns a snapshot of the rows of one replicated zone table,
// sorted by row name. Attrs maps are shared and must be treated as
// read-only. The second result reports whether the agent replicates the
// zone at all.
func (a *Agent) Table(zone string) ([]Row, bool) {
	return a.AppendTable(nil, zone)
}

// AppendTable is Table appending the snapshot to dst, for callers that
// read tables often enough to bring their own buffer.
func (a *Agent) AppendTable(dst []Row, zone string) ([]Row, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tableLocked(zone)
	if t == nil {
		return dst, false
	}
	dst = slices.Grow(dst, len(t.rows))
	for _, r := range t.rows {
		dst = append(dst, snapshotRow(r))
	}
	return dst, true
}

// Row returns one row of a replicated zone table.
func (a *Agent) Row(zone, name string) (Row, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t := a.tableLocked(zone); t != nil {
		if r, ok := t.get(name); ok {
			return snapshotRow(r), true
		}
	}
	return Row{}, false
}

// IsRepresentative reports whether this agent is currently an elected
// representative of its child zone within zone (i.e. whether it gossips
// and forwards at that level). zone must be a proper ancestor of the
// agent's leaf zone.
func (a *Agent) IsRepresentative(zone string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tableLocked(zone) != nil && a.isRepresentativeLocked(ZoneDepth(zone))
}

// isRepresentativeLocked is IsRepresentative for the zone at chain depth.
func (a *Agent) isRepresentativeLocked(depth int) bool {
	if depth == len(a.chain)-1 {
		return true // every member participates at leaf level
	}
	row, ok := a.tables[depth].get(ZoneName(a.chain[depth+1]))
	if !ok {
		return false
	}
	reps, _ := row.Attrs[AttrReps].RawStrings()
	return slices.Contains(reps, a.addr)
}

// OwnRowUpdate returns the agent's current leaf row as a RowUpdate, for
// seeding other agents' membership at bootstrap.
func (a *Agent) OwnRowUpdate() wire.RowUpdate {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ownUpdateLocked()
}

func (a *Agent) ownUpdateLocked() wire.RowUpdate {
	own, _ := a.tableLocked(a.leaf).get(a.name)
	return a.ownRow.Update(a.leaf, own.stamp())
}

// ChainRowUpdates returns the agent's own leaf row plus the aggregate row
// it computed for each zone on its chain. Merging another agent's chain
// rows is the bootstrap introduction: same-zone peers learn the leaf row,
// distant peers learn the aggregated zone rows they share tables with (the
// zone-placement configuration the paper defers to the Astrolabe effort,
// §8).
func (a *Agent) ChainRowUpdates() []wire.RowUpdate {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := []wire.RowUpdate{a.ownUpdateLocked()}
	for i := len(a.chain) - 1; i >= 1; i-- {
		if r, ok := a.tables[i-1].get(ZoneName(a.chain[i])); ok {
			out = append(out, r.Update(a.chain[i-1], r.stamp()))
		}
	}
	return out
}

// MergeRows folds externally obtained rows (bootstrap seeds or state
// transfer) into the agent's replicas, as if they had arrived in gossip.
func (a *Agent) MergeRows(rows []wire.RowUpdate) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mergeRowsLocked(rows)
	a.recomputeAggregatesLocked()
}

// Tick advances the agent one gossip round: re-issue the heartbeat on its
// own row, evict stale rows, recompute aggregates, and gossip with
// partners at every level where this agent is active.
func (a *Agent) Tick() {
	a.mu.Lock()
	now := a.cfg.Clock.Now()

	// Heartbeat: re-issue own row so peers' failure detectors stay quiet.
	a.ownRow = a.reissueLocked(a.tableLocked(a.leaf), a.leaf, a.ownRow, now)

	// Failure detection: evict rows that have not been refreshed.
	a.expireLocked(now)

	// Recompute the aggregate rows along this agent's chain.
	a.recomputeAggregatesLocked()

	// Choose gossip partners and build their digests under the lock, send
	// after releasing it. A partner at chain depth i shares the chain's
	// first i+1 tables with this agent. The partner lists are a few entries
	// long and die with this call, so they live on the stack (a table
	// larger than candBuf spills to the heap).
	type dest struct {
		addr string
		msg  *wire.Message
	}
	var destBuf [8]dest
	var candBuf [64]string
	dests := destBuf[:0]
	for i := len(a.chain) - 1; i >= 0; i-- {
		var partners []string
		if i == len(a.chain)-1 {
			partners = a.pickLeafPartnersLocked(candBuf[:0], gossipFanout)
		} else if a.isRepresentativeLocked(i) {
			partners = a.pickZonePartnersLocked(candBuf[:0], i, gossipFanout)
		}
		for _, addr := range partners {
			dests = append(dests, dest{addr, a.digestLocked(i + 1)})
		}
	}
	tr := a.cfg.Transport
	a.mu.Unlock()

	for _, d := range dests {
		// Best-effort: the epidemic tolerates loss.
		_ = tr.Send(d.addr, d.msg)
	}
}

// Introduce opens a delta exchange with each peer over the agent's whole
// chain: the join of a new agent. A peer diffs the sections of the tables
// the two agents share and ignores the rest, so the one exchange leaves
// each side holding the other's rows of every shared table. Best-effort,
// like any gossip: a lost leg is repaired by the next Tick.
func (a *Agent) Introduce(peers ...string) {
	a.mu.Lock()
	msgs := make([]*wire.Message, len(peers))
	for i := range msgs {
		msgs[i] = a.digestLocked(len(a.chain))
	}
	tr := a.cfg.Transport
	a.mu.Unlock()

	for i, peer := range peers {
		_ = tr.Send(peer, msgs[i])
	}
}

// HandleMessage processes one inbound message. Non-gossip messages are
// ignored (the pub/sub layer routes those before they get here).
func (a *Agent) HandleMessage(msg *wire.Message) {
	switch msg.Kind {
	case wire.KindGossipDigest:
		a.handleGossipDigest(msg)
	case wire.KindGossipDelta:
		a.handleGossipDelta(msg)
	default:
	}
}

// sharedTablesLocked returns how many tables this agent shares with an
// agent whose leaf zone is fromZone: the chain's first that-many zones.
func (a *Agent) sharedTablesLocked(fromZone string) int {
	return ZoneDepth(CommonAncestor(a.leaf, fromZone)) + 1
}

// handleGossipDigest serves the request leg of a delta exchange. A
// section that describes the content this agent holds too is diffed row by
// row, by position; one that does not is answered with this agent's own
// section for the zone, names attached, for the initiator to diff.
func (a *Agent) handleGossipDigest(msg *wire.Message) {
	g := msg.GossipDigest
	out := scratch.Get().(*delta)
	defer scratch.Put(out)
	a.mu.Lock()
	a.stats.GossipsReceived++
	// The answer is sent whatever the diff finds.
	a.diffSectionsLocked(out, g.FromZone, g.Sections, true)
	reply := a.deltaLocked(out)
	tr := a.cfg.Transport
	a.mu.Unlock()

	_ = tr.Send(msg.From, reply)
}

// handleGossipDelta takes what a delta carries — stamps, rows, and the
// sender's sections of the zones a digest of ours mismatched on — and, if
// that leaves the sender owed anything (the rows it asked for, or whatever
// diffing its sections turns up), answers with one more delta. Only a
// section makes a delta ask for rows, and the answer carries none, so the
// exchange ends with that answer or the rows-only delta that serves it.
func (a *Agent) handleGossipDelta(msg *wire.Message) {
	g := msg.GossipDelta
	out := scratch.Get().(*delta)
	defer scratch.Put(out)
	a.mu.Lock()
	a.stats.RepliesReceived++
	// Stamps first: they refer to the tables as this agent described
	// them, before the rows of the same delta change any.
	a.applyStampsLocked(g.Stamps)
	a.mergeRowsLocked(g.Rows)
	a.rowsForRefsLocked(out, g.Want)
	a.diffSectionsLocked(out, g.FromZone, g.Sections, false)
	if len(out.rows)+len(out.want)+len(out.stamps) == 0 {
		a.mu.Unlock()
		return
	}
	reply := a.deltaLocked(out)
	tr := a.cfg.Transport
	a.mu.Unlock()

	_ = tr.Send(msg.From, reply)
}

// slabs hold every part of every gossip message this process sends
// (DESIGN §8, "Gossip message ownership"). A slab never hands a region out
// twice, so a sent message is never written again, however long a
// transport holds it, and a slab is freed by the collector with the last
// message that points into it. A part whose size is known when the message
// is built is taken at that size; one that is not is collected in a
// scratch delta and copied here at its exact length.
var slabs struct {
	digests  wire.Slab[digestFrame]
	deltas   wire.Slab[deltaFrame]
	sections wire.Slab[wire.ZoneSection]
	lags     wire.Slab[time.Duration]
	named    wire.Slab[wire.RowSummary]
	rows     wire.Slab[wire.RowUpdate]
	want     wire.Slab[wire.RowRef]
	zones    wire.Slab[wire.ZoneStamps]
	stamps   wire.Slab[wire.RowStamp]
}

// scratch holds the deltas gossip handlers diff into. It is pooled rather
// than kept per agent: a thousand agents' grown lists would outweigh what
// they save. A handler empties its scratch (deltaLocked) before putting it
// back, so none of it outlives the handler's locked call.
var scratch = sync.Pool{New: func() any { return new(delta) }}

// digestFrame is a digest message and its payload.
type digestFrame struct {
	msg  wire.Message
	body wire.GossipDigest
}

// deltaFrame is a delta message and its payload.
type deltaFrame struct {
	msg  wire.Message
	body wire.GossipDelta
}

// digestLocked builds the request leg of a delta exchange, one bare
// section for each of the chain's first `shared` tables, and counts it as
// sent.
func (a *Agent) digestLocked(shared int) *wire.Message {
	rows := 0
	for i := range shared {
		rows += len(a.tables[i].rows)
	}
	frame := &slabs.digests.Take(1)[0]
	lags := slabs.lags.Take(rows)
	sections := slabs.sections.Take(shared)
	for depth := range sections {
		n := len(a.tables[depth].rows)
		sections[depth] = a.sectionLocked(depth, lags[:n:n], false)
		lags = lags[n:]
	}
	a.stats.DigestsSent += int64(rows)
	frame.body = wire.GossipDigest{FromZone: a.leaf, Sections: sections}
	frame.msg = wire.Message{Kind: wire.KindGossipDigest, From: a.addr, GossipDigest: &frame.body}
	a.stats.GossipsSent++
	a.stats.GossipBytesSent += int64(frame.msg.EstimateSize())
	return &frame.msg
}

// sectionLocked describes the chain's table at depth: its content hash,
// its newest stamp, and each row's lag behind that in name order, written
// into lags when the caller brings room for them. A named section also
// lists every row's name and attrs hash, from the per-row cache.
func (a *Agent) sectionLocked(depth int, lags []time.Duration, named bool) wire.ZoneSection {
	t := &a.tables[depth]
	if lags == nil {
		lags = slabs.lags.Take(len(t.rows))
	}
	s := wire.ZoneSection{Depth: depth, Hash: t.hash, Newest: t.newest(), Lags: lags}
	if named {
		s.Named = slabs.named.Take(len(t.rows))
	}
	for i, r := range t.rows {
		lags[i] = s.Newest.Sub(r.stamp())
		if named {
			s.Named[i] = wire.RowSummary{Name: r.Name, Hash: r.AttrsHash()}
		}
	}
	return s
}

// delta accumulates what one leg of a delta exchange answers with.
type delta struct {
	rows     []wire.RowUpdate
	want     []wire.RowRef
	stamps   []wire.ZoneStamps
	sections []wire.ZoneSection
	// rowStamps backs the Rows of every entry of stamps, in order.
	rowStamps []wire.RowStamp
}

// deltaLocked builds a delta message holding an exact copy of out, counts
// it as sent and empties out.
func (a *Agent) deltaLocked(out *delta) *wire.Message {
	frame := &slabs.deltas.Take(1)[0]
	zones := slabs.zones.Copy(out.stamps)
	rowStamps := slabs.stamps.Copy(out.rowStamps)
	for i := range zones {
		n := len(zones[i].Rows)
		zones[i].Rows, rowStamps = rowStamps[:n:n], rowStamps[n:]
	}
	frame.body = wire.GossipDelta{
		FromZone: a.leaf,
		Rows:     slabs.rows.Copy(out.rows),
		Want:     slabs.want.Copy(out.want),
		Stamps:   zones,
		Sections: slabs.sections.Copy(out.sections),
	}
	frame.msg = wire.Message{Kind: wire.KindGossipDelta, From: a.addr, GossipDelta: &frame.body}
	a.stats.RowsSent += int64(len(out.rows))
	a.stats.StampsSent += int64(len(out.rowStamps))
	a.stats.GossipBytesSent += int64(frame.msg.EstimateSize())
	out.reset()
	return &frame.msg
}

// reset empties d for reuse. It clears what d held rather than only
// truncating, so an idle scratch keeps no row or slab reachable.
func (d *delta) reset() {
	clear(d.rows)
	clear(d.want)
	clear(d.stamps)
	clear(d.sections)
	d.rows, d.want, d.stamps = d.rows[:0], d.want[:0], d.stamps[:0]
	d.sections, d.rowStamps = d.sections[:0], d.rowStamps[:0]
}

// diffSectionsLocked diffs each of the sections an agent of fromZone sent
// against the table it describes, leaving out tables the two agents do not
// share. With answer set, a section this agent cannot read is answered in
// out with its own section for the zone, names attached.
func (a *Agent) diffSectionsLocked(out *delta, fromZone string, sections []wire.ZoneSection, answer bool) {
	shared := a.sharedTablesLocked(fromZone)
	for i := range sections {
		s := &sections[i]
		if s.Depth < shared && !a.diffSectionLocked(out, s) && answer {
			named := a.sectionLocked(s.Depth, nil, true)
			a.stats.DigestsSent += int64(len(named.Lags))
			out.sections = append(out.sections, named)
		}
	}
}

// diffSectionLocked compares a peer's section against the table it
// describes and adds to out what the peer needs: the rows it lacks or
// holds staler with other content, refs of the rows it holds fresher (or
// that this agent lacks), both at once for a row whose two copies share a
// stamp but not their bytes (each side then runs the encoded tie-break on
// the full rows), and a stamp for each row this agent holds fresher whose
// bytes the peer already stores.
//
// A named section is walked against the table's rows, both in name order.
// A bare one can only be read by an agent that holds the same names with
// the same attribute bytes — equal content hash and row count — which
// takes names and hashes from its own rows by position; otherwise nothing
// is diffed and the result is false.
//
// The stamp paths are the steady-state optimization: once a cluster
// converges, nearly every row differs between peers only by its heartbeat
// issue time. Shipping a position and a lag (or, when the peer is the
// fresher side, re-issuing the stored copy locally with no wire traffic at
// all) instead of the full row removes the dominant share of anti-entropy
// bytes. Signed rows are excluded: a re-stamped row carries an issue time
// its owner never signed, so they always travel whole.
func (a *Agent) diffSectionLocked(out *delta, s *wire.ZoneSection) bool {
	zone := a.chain[s.Depth]
	t := &a.tables[s.Depth]
	named := len(s.Named) > 0
	if named {
		if len(s.Named) != len(s.Lags) {
			return false // no codec writes or reads this
		}
	} else if len(s.Lags) != len(t.rows) || s.Hash != t.hash {
		return false
	}

	sendRow := func(r entry) {
		out.rows = append(out.rows, r.Update(zone, r.stamp()))
	}
	wantRow := func(name string) {
		out.want = append(out.want, wire.RowRef{Zone: zone, Name: name})
	}
	// Stamps count back from this table's newest stamp, read when the
	// first one is written: re-stamps earlier in the walk may have moved it.
	firstStamp := len(out.rowStamps)
	var newest time.Time
	stampRow := func(pos int, held time.Time) {
		if len(out.rowStamps) == firstStamp {
			newest = t.newest()
		}
		out.rowStamps = append(out.rowStamps, wire.RowStamp{Pos: uint32(pos), Lag: newest.Sub(held)})
	}

	// Leaf member rows take the full stampLag: their owners re-issue
	// every Tick, so replicas may run a couple of rounds stale with
	// no consequence beyond failure-detection slack. Aggregate rows
	// (every non-leaf table) are exempt: their stamps advance with
	// the freshest child heartbeat, so a transiently-wrong aggregate
	// always carries a fresher stamp than lagging replicas of the
	// corrected content and would keep winning exchanges for a full
	// stampLag — stretching chaos-suite self-healing past its round
	// budget. There are only a handful of aggregate rows per table,
	// so stamping them every exchange costs a few dozen bytes.
	lag := a.stampLag
	if zone != a.leaf {
		lag = 0
	}

	ours := 0 // next of our rows the section has not passed yet
	for pos := range s.Lags {
		i := pos // our row for the section's row at pos
		if named {
			name := s.Named[pos].Name
			// Push the rows of ours that sort before it: the peer lacks them.
			for ; ours < len(t.rows) && t.rows[ours].Name < name; ours++ {
				sendRow(t.rows[ours])
			}
			if ours == len(t.rows) || t.rows[ours].Name != name {
				wantRow(name) // the peer has a row we lack: ask for it
				continue
			}
			i = ours
			ours++
		}
		r := t.rows[i]
		same := !named || r.AttrsHash() == s.Named[pos].Hash
		issued := s.Newest.Add(-s.Lags[pos])
		held := r.stamp()
		switch {
		case held.After(issued):
			if len(r.Sig) == 0 && same {
				// Same bytes both sides, ours fresher. Below the stamp
				// lag the peer's copy is fresh enough to need nothing at
				// all; past it, a few bytes of stamp refresh the replica
				// without shipping the row. Propagating freshness in
				// stampLag-sized jumps instead of every round is what
				// keeps steady-state heartbeat traffic — bytes and
				// allocations both — near zero.
				if held.Sub(issued) >= lag {
					stampRow(pos, held)
				}
			} else {
				sendRow(r)
			}
		case issued.After(held):
			if len(r.Sig) == 0 && same && !(zone == a.leaf && r.Name == a.name) {
				// The peer is fresher but holds the very bytes we store:
				// re-issue our copy locally at its stamp. No want ref, no
				// reply bytes, no row on a later leg. Below the stamp lag
				// our copy is fresh enough as-is.
				if issued.Sub(held) >= lag {
					a.restampLocked(t, i, issued)
				}
			} else {
				wantRow(r.Name)
			}
		case !same:
			// Same issue time, different content: both sides need the
			// full rows to run the deterministic encoded tie-break.
			sendRow(r)
			wantRow(r.Name)
		}
	}
	if named {
		for ; ours < len(t.rows); ours++ {
			sendRow(t.rows[ours])
		}
	}
	if n := len(out.rowStamps); n > firstStamp {
		out.stamps = append(out.stamps, wire.ZoneStamps{
			Depth: s.Depth, Hash: s.Hash, Newest: newest, Rows: out.rowStamps[firstStamp:n:n],
		})
	}
	return true
}

// restampLocked moves the stamp of the row at position i to `at`, leaving
// the shared content where it is. The caller has proven the content
// identical on both sides and the row unsigned; re-stamping never marks a
// zone dirty — it is the wire-free equivalent of a heartbeat re-delivery.
func (a *Agent) restampLocked(t *table, i int, at time.Time) {
	r := t.rows[i]
	r.sec, r.nsec = at.Unix(), int32(at.Nanosecond())
	t.set(i, r)
	a.stats.StampsApplied++
}

// applyStampsLocked re-issues stored rows from a peer's stamps. They name
// rows by position in a section this agent sent, so they are applied only
// to a table that still hashes to what that section said: after any change
// a position may mean another row, and a stamp that landed on it would keep
// a dead member's row alive. Dropped stamps cost nothing but time — the
// next exchange repeats them. Rows that are signed, this agent's own, or
// already as fresh are skipped.
func (a *Agent) applyStampsLocked(stamps []wire.ZoneStamps) {
	for i := range stamps {
		z := &stamps[i]
		if z.Depth >= len(a.chain) {
			continue // we do not replicate that table
		}
		t := &a.tables[z.Depth]
		if t.hash != z.Hash {
			continue
		}
		leaf := z.Depth == len(a.tables)-1
		for _, s := range z.Rows {
			if int(s.Pos) >= len(t.rows) {
				continue
			}
			r := t.rows[s.Pos]
			if leaf && r.Name == a.name {
				continue // authoritative for our own row
			}
			if at := z.Newest.Add(-s.Lag); len(r.Sig) == 0 && at.After(r.stamp()) {
				a.restampLocked(t, int(s.Pos), at)
			}
		}
	}
}

// rowsForRefsLocked adds to out the full rows a peer's Want refs name,
// skipping rows that expired since the peer learned of them.
func (a *Agent) rowsForRefsLocked(out *delta, refs []wire.RowRef) {
	for i := range refs {
		ref := &refs[i]
		if t := a.tableLocked(ref.Zone); t != nil {
			if r, ok := t.get(ref.Name); ok {
				out.rows = append(out.rows, r.Update(ref.Zone, r.stamp()))
			}
		}
	}
}

func (a *Agent) mergeRowsLocked(rows []wire.RowUpdate) {
	for i := range rows {
		u := &rows[i]
		t := a.tableLocked(u.Zone)
		if t == nil {
			continue // we do not replicate that table
		}
		if u.Zone == a.leaf && u.Name == a.name {
			continue // we are authoritative for our own row
		}
		existing, exists := t.get(u.Name)
		held := existing.stamp()
		if exists && existing.SharedRow == u.Shared() && held.Equal(u.Issued) {
			// Re-delivery of the very row we store, at the stamp we store
			// it at. The stamp is part of the test: the same content at a
			// newer stamp is a peer's re-stamp and must move ours (below,
			// as a timestamp-only refresh), or failure detectors starve.
			continue
		}
		if exists && !u.Issued.After(held) {
			if !u.Issued.Equal(held) {
				continue
			}
			// Same timestamp. The overwhelmingly common case in steady
			// state is an identical re-delivery — skip it cheaply before
			// paying for the encoded tie-break. Shared-map identity makes
			// the check O(1) when sender and receiver hold the same row.
			if sameAttrs(existing.Attrs, u.Attrs) || existing.Attrs.Equal(u.Attrs) {
				continue
			}
			// Equal timestamps with different content: deterministic
			// tie-break on the encoded attributes so all replicas agree.
			// Both encodings come from (or seed) the shared rows' caches.
			uenc := u.AsShared().Encoding()
			if bytes.Compare(existing.Encoding(), uenc) >= 0 {
				continue
			}
		}
		if a.cfg.VerifyRow != nil {
			if err := a.cfg.VerifyRow(u); err != nil {
				a.stats.RowsRejected++
				continue
			}
		}
		// Install the sender's shared row by reference: an identical
		// foreign row replicated across the whole system stays one
		// allocation, and its encoding/digest caches are computed once,
		// not once per replica.
		row := u.AsShared()
		if exists && (sameAttrs(existing.Attrs, u.Attrs) || existing.Attrs.Equal(u.Attrs)) {
			// The content we hold under a newer stamp or signature: its
			// encoding and hash are the ones already computed.
			row.AdoptCache(existing.SharedRow)
		} else {
			// Content changed (timestamp-only refreshes leave the zone
			// clean, so heartbeats do not trigger re-aggregation).
			t.dirty = true
		}
		t.put(newEntry(row, u.Issued))
		a.stats.RowsMerged++
	}
}

func (a *Agent) expireLocked(now time.Time) {
	leafCutoff := now.Add(-failRounds * a.cfg.GossipInterval)
	aggCutoff := now.Add(-aggFailRounds * a.cfg.GossipInterval)
	for depth := range a.tables {
		t := &a.tables[depth]
		leaf := depth == len(a.tables)-1
		cutoff := aggCutoff
		if leaf {
			cutoff = leafCutoff
		}
		// Back to front, so a deletion moves only rows already visited.
		for i := len(t.rows) - 1; i >= 0; i-- {
			r := t.rows[i]
			if leaf && r.Name == a.name {
				continue
			}
			if r.stamp().Before(cutoff) {
				if _, virt := r.Attrs[AttrVirtual]; virt {
					// Virtual leaves have no agent reissuing their row;
					// the template is live for the whole run.
					continue
				}
				t.del(i)
				t.dirty = true
				a.stats.RowsExpired++
			}
		}
	}
}

// recomputeAggregatesLocked recomputes the aggregate row of each zone on
// this agent's chain into its parent's table. The aggregate row's issue
// time is the max issue time of its inputs, which makes the computation
// deterministic across replicas: same inputs produce the same row with the
// same timestamp, so freshest-wins merging converges.
//
// Aggregation is incremental: a zone whose attribute content has not
// changed since its last aggregate (table.dirty clear) skips the program
// evaluation entirely. Steady-state heartbeats only advance issue times,
// so the clean path merely re-stamps the aggregate row this agent owns
// with the new max input time — keeping the failure detector fed without
// a single Eval. Zones iterate deepest-first, so a content change deep in
// the chain marks each ancestor dirty before the ancestor is visited.
func (a *Agent) recomputeAggregatesLocked() {
	for i := len(a.chain) - 1; i >= 1; i-- {
		parent := a.chain[i-1]
		ct, pt := &a.tables[i], &a.tables[i-1]
		if len(ct.rows) == 0 {
			continue
		}
		name := ZoneName(a.chain[i])

		latest := ct.newest()

		if !ct.dirty {
			existing, exists := pt.get(name)
			switch {
			case exists && existing.Owner == a.addr && existing.AttrsHash() == ct.aggHash:
				// Same content, fresher inputs: re-issue our aggregate
				// so peers' failure detectors see it refreshed. The hash
				// check keeps this path honest: re-issuing is only sound
				// for content this agent actually computed — a row mutated
				// behind our back must not be relaunched with a fresh stamp
				// and signature.
				if latest.After(existing.stamp()) {
					a.reissueLocked(pt, parent, existing.SharedRow, latest)
				}
				continue
			case exists && existing.Owner != a.addr:
				// A peer owns the current aggregate; it refreshes via
				// gossip. Nothing to do for a clean zone.
				continue
			}
			// No aggregate row at all, or our own stored aggregate no
			// longer matches what we computed: fall through to the full
			// path.
		}

		rows := a.aggRows[:0]
		for _, r := range ct.rows {
			rows = append(rows, r.SharedRow)
		}
		// Inputs go in by address, not by row name: REPS keeps input order
		// among rows it cannot rank and prefix rules merge in input order,
		// so the order is part of the aggregate. Ties compare on cached
		// encodings, so no map is re-encoded per comparison.
		slices.SortFunc(rows, func(x, y *wire.SharedRow) int {
			ax, _ := x.Attrs[AttrAddr].AsString()
			ay, _ := y.Attrs[AttrAddr].AsString()
			if c := strings.Compare(ax, ay); c != 0 {
				return c
			}
			return bytes.Compare(x.Encoding(), y.Encoding())
		})
		inputs := a.aggInputs[:0]
		for _, r := range rows {
			inputs = append(inputs, r.Attrs)
		}
		a.aggRows, a.aggInputs = rows, inputs
		a.stats.AggEvals++
		out, err := a.cfg.Aggregation.Eval(inputs)
		if err != nil {
			continue // a broken program must not kill the agent
		}
		a.applyPrefixRulesLocked(inputs, out)

		// The zone stays dirty until the stored aggregate row actually
		// reflects this output: a skip below (peer's copy fresher, or a
		// same-stamp tie-break loss) must retry next Tick once input
		// heartbeats advance `latest` past the stored copy — otherwise
		// the losing content would be re-stamped forever by its owner's
		// clean path and never corrected.
		existing, exists := pt.get(name)
		if exists && existing.Attrs.Equal(out) {
			// Whoever stamped the stored copy, it matches the current
			// content: the zone is clean, and the owner keeps it fresh.
			ct.dirty = false
			ct.aggHash = existing.AttrsHash()
			continue
		}
		if exists && existing.stamp().After(latest) {
			continue // a peer computed from fresher inputs
		}
		candidate := &wire.SharedRow{Name: name, Attrs: out, Owner: a.addr}
		if exists && existing.stamp().Equal(latest) &&
			bytes.Compare(existing.Encoding(), candidate.Encoding()) >= 0 {
			continue // lost the deterministic tie-break at this stamp
		}
		a.signRowLocked(candidate, parent, latest)
		ct.dirty = false
		ct.aggHash = candidate.AttrsHash()
		pt.dirty = true
		pt.put(newEntry(candidate, latest))
	}
	clear(a.aggRows[:cap(a.aggRows)])
	clear(a.aggInputs[:cap(a.aggInputs)])
}

// applyPrefixRulesLocked aggregates dynamically named attributes into out.
func (a *Agent) applyPrefixRulesLocked(inputs []value.Map, out value.Map) {
	for _, rule := range a.cfg.PrefixRules {
		if a.merged == nil {
			a.merged = make(map[string]value.Value)
		}
		merged := a.merged
		for _, row := range inputs {
			for name, v := range row {
				if len(name) < len(rule.Prefix) || name[:len(rule.Prefix)] != rule.Prefix {
					continue
				}
				acc, ok := merged[name]
				if !ok {
					merged[name] = v
					continue
				}
				merged[name] = mergePrefixValue(rule.Op, acc, v)
			}
		}
		for name, v := range merged {
			if v.IsValid() {
				out[name] = v
			}
		}
		clear(merged)
	}
}

func mergePrefixValue(op PrefixOp, acc, v value.Value) value.Value {
	switch op {
	case PrefixSum:
		a, ok1 := acc.AsFloat()
		b, ok2 := v.AsFloat()
		if !ok1 || !ok2 {
			return acc
		}
		return value.Float(a + b)
	case PrefixMin:
		if c, err := acc.Compare(v); err == nil && c > 0 {
			return v
		}
		return acc
	case PrefixMax:
		if c, err := acc.Compare(v); err == nil && c < 0 {
			return v
		}
		return acc
	case PrefixSketch:
		ab, ok1 := acc.RawBytes()
		vb, ok2 := v.RawBytes()
		if !ok1 {
			return v
		}
		if !ok2 {
			return acc
		}
		merged, err := metrics.MergeEncoded(ab, vb)
		if err != nil {
			return acc
		}
		return value.Bytes(merged)
	case PrefixSubgroup:
		ab, ok1 := acc.RawBytes()
		vb, ok2 := v.RawBytes()
		if !ok1 {
			return v
		}
		if !ok2 {
			return acc
		}
		return value.Bytes(bloom.MergeSignatureSets(ab, vb))
	default:
		return acc
	}
}

// pickLeafPartnersLocked selects up to n random gossip partners from the
// agent's leaf table (excluding itself), building the list in buf. A
// joining agent placed into a zone whose members it does not know yet has
// an empty leaf table; it falls back to the representatives its
// parent-table replica lists for the zone, whose gossip replies then carry
// the full leaf table (the join path of §8).
func (a *Agent) pickLeafPartnersLocked(buf []string, n int) []string {
	candidates := buf[:0]
	for _, r := range a.tableLocked(a.leaf).rows {
		if r.Name == a.name {
			continue
		}
		if _, virt := r.Attrs[AttrVirtual]; virt {
			continue // no agent behind a virtual leaf to gossip with
		}
		if addr, ok := r.Attrs[AttrAddr].AsString(); ok {
			candidates = append(candidates, addr)
		}
	}
	if len(candidates) == 0 {
		// An agent lives below the root, so its leaf has a parent table.
		if row, ok := a.tables[len(a.tables)-2].get(ZoneName(a.leaf)); ok {
			reps, _ := row.Attrs[AttrReps].RawStrings()
			for _, rep := range reps {
				if rep != a.addr {
					candidates = append(candidates, rep)
				}
			}
		}
	}
	return samplePartners(a.cfg.Rand, candidates, n)
}

// pickZonePartnersLocked selects up to n partner addresses among the
// representatives of sibling child zones in the table at chain depth,
// building the list in buf. The rep draws pair with rows in name order.
func (a *Agent) pickZonePartnersLocked(buf []string, depth, n int) []string {
	ownName := ZoneName(a.chain[depth+1])
	candidates := buf[:0]
	for _, r := range a.tables[depth].rows {
		if r.Name == ownName {
			continue
		}
		if reps, ok := r.Attrs[AttrReps].RawStrings(); ok && len(reps) > 0 {
			candidates = append(candidates, reps[a.cfg.Rand.Intn(len(reps))])
		} else if addr, ok := r.Attrs[AttrAddr].AsString(); ok {
			candidates = append(candidates, addr)
		}
	}
	return samplePartners(a.cfg.Rand, candidates, n)
}

// ScrambleRows is the chaos-injection hook: it corrupts a fraction of the
// agent's replicated rows in place, modeling arbitrary state damage
// (bit-rot, a buggy peer, an attacker replaying mangled gossip). Each
// victim row is replaced by a freshly built copy (the stored row stays
// immutable — peers may share it) whose attributes are mutated while the
// issue stamp, owner, and any signature are carried over unchanged. The
// stale signature makes a scrambled row fail certificate verification at
// every peer it gossips to; without signing, the unchanged stamp means the
// owner's next heartbeat or aggregate recomputation supersedes it, so the
// damage self-heals within a bounded number of rounds either way.
// Additionally the first two victims of each table have their attribute
// maps swapped (a row permutation, the "arbitrary state" of
// self-stabilization testing).
//
// The agent's own leaf row is never scrambled (it is authoritative and
// reissued every Tick regardless) and neither are virtual-leaf template
// rows (nothing reissues those, so damage to them could never heal).
//
// rng must be owned by the caller and drawn in canonical order; zones are
// visited root first and rows in name order, so identically seeded runs
// scramble identically. Returns the number of rows scrambled.
func (a *Agent) ScrambleRows(rng *rand.Rand, frac float64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for depth := range a.tables {
		t := &a.tables[depth]
		leaf := depth == len(a.tables)-1
		var victims []entry
		for _, r := range t.rows {
			if leaf && r.Name == a.name {
				continue
			}
			if _, virt := r.Attrs[AttrVirtual]; virt {
				continue
			}
			if rng.Float64() >= frac {
				continue
			}
			attrs := r.Attrs.Clone()
			keys := make([]string, 0, len(attrs))
			for k := range attrs {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if len(keys) > 0 {
				k := keys[rng.Intn(len(keys))]
				attrs[k] = value.String(fmt.Sprintf("scrambled-%d", rng.Int63()))
			}
			mutated := &wire.SharedRow{
				Name:   r.Name,
				Attrs:  attrs,
				Owner:  r.Owner,
				Signer: r.Signer, // stale signature: fails verification
				Sig:    r.Sig,
			}
			// Stale stamp: the owner's next issue wins.
			victims = append(victims, newEntry(mutated, r.stamp()))
		}
		if len(victims) >= 2 {
			// Permute: swap the attribute maps of the first two victims.
			// Both are freshly built rows, neither stored nor shared with any
			// peer yet, so mutating them here is still within the COW
			// discipline.
			victims[0].Attrs, victims[1].Attrs = victims[1].Attrs, victims[0].Attrs
		}
		for _, v := range victims {
			t.put(v)
			t.dirty = true
		}
		total += len(victims)
	}
	if total > 0 {
		a.recomputeAggregatesLocked()
	}
	return total
}

// FingerprintTables digests the attribute content of every replicated
// table: per zone in chain order its path, row count and content hash —
// the very hash gossip compares to decide that two replicas hold the same
// rows. Issue stamps, owners, and signatures are no part of it: two runs
// that converged to the same content through different gossip histories
// must fingerprint equal. This is the convergence oracle of the chaos
// suite: a scrambled run has self-healed exactly when its fingerprint
// matches a never-scrambled twin's. Rows that carry sys$health attributes
// enter with those left out (fingerprintAttrsHash).
func (a *Agent) FingerprintTables() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := uint64(offset64)
	mixByte := func(b byte) { h ^= uint64(b); h *= prime64 }
	mixUint64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mixByte(byte(v >> (8 * i)))
		}
	}
	for depth, zone := range a.chain {
		t := &a.tables[depth]
		content := t.hash
		for _, r := range t.rows {
			if all, clean := r.AttrsHash(), fingerprintAttrsHash(r.SharedRow); clean != all {
				content += rowHash(r.Name, clean) - rowHash(r.Name, all)
			}
		}
		for i := 0; i < len(zone); i++ {
			mixByte(zone[i])
		}
		mixByte(0xff) // separator
		mixUint64(uint64(len(t.rows)))
		mixUint64(content)
	}
	return h
}

// fingerprintAttrsHash returns the row's attrs hash with sys$health
// attributes excluded. Health telemetry (retry counters, latency
// sketches) legitimately diverges between runs whose delivery content
// converged — a chaos run and its clean twin — so it must not feed the
// convergence oracle. Rows without health attrs (the overwhelming
// majority, and every row when health telemetry is off) use the row's
// cached hash unchanged, so the exclusion costs nothing where it does
// not apply.
func fingerprintAttrsHash(r *wire.SharedRow) uint64 {
	clean := true
	for k := range r.Attrs {
		if strings.HasPrefix(k, HealthPrefix) {
			clean = false
			break
		}
	}
	if clean {
		return r.AttrsHash()
	}
	filtered := make(value.Map, len(r.Attrs))
	for k, v := range r.Attrs {
		if !strings.HasPrefix(k, HealthPrefix) {
			filtered[k] = v
		}
	}
	// FNV-64a over the canonical encoding, mirroring SharedRow.AttrsHash
	// so a row that merely lacks health attrs hashes identically through
	// either path.
	h := uint64(offset64)
	for _, b := range filtered.AppendBinary(nil) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// samplePartners picks up to n distinct elements of candidates. It sorts
// them by address first: the shuffle's draws pair with positions, so the
// pick depends on the seed and the addresses, not on the rows' order.
func samplePartners(rng *rand.Rand, candidates []string, n int) []string {
	if len(candidates) == 0 {
		return nil
	}
	slices.Sort(candidates)
	if n >= len(candidates) {
		return candidates
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	return candidates[:n]
}
