// Package pubsub implements NewsWire's selective-forwarding layer on top
// of Astrolabe and the application-level multicast (paper §6–7).
//
// Subscriptions live as attributes of the subscriber's Astrolabe leaf row
// and aggregate up the zone hierarchy; publishing is a multicast whose
// forwarding decision at each zone consults the child zone's aggregated
// subscription summary. Two summary representations are implemented:
//
//   - ModeBloom — the paper's design: one Bloom filter attribute per node,
//     OR-aggregated upward; items carry the bit positions of their
//     subjects; a final exact-match test at the leaf discards false
//     positives (§6).
//   - ModePredicate — the §7 target design: typed SQL predicates over
//     item metadata (internal/query), compiled to sound Bloom signatures
//     over the subject/publisher/urgency dimensions. The single-filter
//     signature OR-aggregates up the hierarchy as AttrSubs, and a
//     signature set (AttrSubGroups) additionally clusters similar
//     subscriptions into up to K subgroup filters per zone row, so
//     intermediate zones test tight per-cluster filters instead of one
//     saturated OR-of-everything — cutting false-positive forwards.
package pubsub

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/multicast"
	"newswire/internal/news"
	"newswire/internal/query"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// Mode selects the subscription-summary representation.
type Mode int

// Subscription summary modes.
const (
	ModeBloom Mode = iota + 1
	ModePredicate
)

// modeNames is the one list of summary modes: Mode.String, ParseMode,
// NewSubscriber's validation and the CLIs' -mode help all read it.
var modeNames = [...]string{ModeBloom: "bloom", ModePredicate: "predicate"}

func (m Mode) valid() bool { return m >= ModeBloom && int(m) < len(modeNames) }

// String returns the mode name.
func (m Mode) String() string {
	if m.valid() {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode maps a mode name (as printed by Mode.String) back to the
// mode, for CLI flags. Empty selects ModeBloom.
func ParseMode(name string) (Mode, error) {
	if name == "" {
		return ModeBloom, nil
	}
	for m := ModeBloom; int(m) < len(modeNames); m++ {
		if modeNames[m] == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("pubsub: unknown mode %q (%s)", name, ModeNames())
}

// ModeNames lists the names ParseMode accepts, for flag help and errors.
func ModeNames() string { return strings.Join(modeNames[ModeBloom:], ", ") }

// AttrSubGroups is the attribute carrying a zone's subgroup signature set
// (ModePredicate): an encoded bloom.SignatureSet of up to DefaultSubgroupK
// per-cluster filters, merged up the hierarchy by astrolabe's
// PrefixSubgroup rule.
const AttrSubGroups = "subg"

// Geometry fixes the Bloom filter shape shared by all participants. It is
// part of the (signed) system configuration, like the aggregation program.
type Geometry struct {
	Bits   int
	Hashes int
}

// DefaultGeometry is the paper's "a thousand bits or more" with single-bit
// hashing of the early prototype.
var DefaultGeometry = Geometry{Bits: bloom.DefaultBits, Hashes: bloom.DefaultHashes}

// DefaultSubgroupK bounds the subgroup filters per zone row
// (ModePredicate). K is a bandwidth/precision dial: each subgroup filter
// gossips with the row.
const DefaultSubgroupK = 4

// Geometry bounds enforced at Subscriber construction. Filters gossip in
// every row, so runaway sizes are configuration errors, not tuning.
const (
	MinGeometryBits = 8
	MaxGeometryBits = 1 << 20
	MaxGeometryHash = 16
)

// ConfigError reports an invalid Subscriber configuration field. It is a
// typed error so callers can distinguish misconfiguration from runtime
// failures (errors.As).
type ConfigError struct {
	Field string // "Mode" or "Geometry"
	Msg   string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("pubsub: invalid %s: %s", e.Field, e.Msg)
}

// Counters collects routing-precision telemetry. All fields are atomic so
// the multicast forwarding path and the leaf delivery path can bump them
// without locks; they live outside gossip state and do not affect the
// deterministic protocol run.
type Counters struct {
	// Forwards counts positive forwarding decisions (zone or leaf).
	Forwards atomic.Int64
	// FalsePositiveDrops counts envelopes that reached the leaf's exact
	// check and were discarded — forwarded work that was wasted.
	FalsePositiveDrops atomic.Int64
	// ExactMatches counts envelopes the leaf's exact check accepted.
	ExactMatches atomic.Int64
	// SubgroupTests counts individual subgroup filters consulted by the
	// ModePredicate forwarding test.
	SubgroupTests atomic.Int64
}

// CounterSnapshot is a point-in-time copy of Counters.
type CounterSnapshot struct {
	Forwards           int64
	FalsePositiveDrops int64
	ExactMatches       int64
	SubgroupTests      int64
}

// Snapshot reads all counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Forwards:           c.Forwards.Load(),
		FalsePositiveDrops: c.FalsePositiveDrops.Load(),
		ExactMatches:       c.ExactMatches.Load(),
		SubgroupTests:      c.SubgroupTests.Load(),
	}
}

// Config configures a Subscriber.
type Config struct {
	// Agent is the Astrolabe agent whose leaf row carries the
	// subscription summary.
	Agent *astrolabe.Agent
	// Mode selects the summary representation. Default ModeBloom.
	Mode Mode
	// Geometry is the Bloom geometry (ModeBloom/ModePredicate). Default
	// DefaultGeometry.
	Geometry Geometry
	// Counters, when non-nil, receives leaf delivery telemetry
	// (exact matches vs false-positive drops).
	Counters *Counters
}

// Subscriber manages a node's subscription set, keeps the Astrolabe
// attributes that advertise it in sync, and answers the local
// exact-match/delivery question.
type Subscriber struct {
	cfg Config

	mu sync.Mutex
	// subjects is the subscription set, sorted. It is replaced, never
	// written: Subjects hands it out, and a state request in flight keeps
	// it.
	subjects  []string
	predicate *query.Predicate
	queries   map[string]*query.Predicate // canonical source -> predicate (ModePredicate)
}

// NewSubscriber validates cfg and returns an empty-subscription
// subscriber. Configuration mistakes return a *ConfigError.
func NewSubscriber(cfg Config) (*Subscriber, error) {
	if cfg.Agent == nil {
		return nil, fmt.Errorf("pubsub: agent required")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeBloom
	}
	if !cfg.Mode.valid() {
		return nil, &ConfigError{Field: "Mode", Msg: fmt.Sprintf("unknown mode %d", cfg.Mode)}
	}
	if cfg.Geometry.Bits == 0 {
		cfg.Geometry = DefaultGeometry
	}
	if cfg.Geometry.Bits < MinGeometryBits || cfg.Geometry.Bits > MaxGeometryBits {
		return nil, &ConfigError{
			Field: "Geometry",
			Msg:   fmt.Sprintf("bits %d outside [%d, %d]", cfg.Geometry.Bits, MinGeometryBits, MaxGeometryBits),
		}
	}
	if cfg.Geometry.Hashes < 1 || cfg.Geometry.Hashes > MaxGeometryHash {
		return nil, &ConfigError{
			Field: "Geometry",
			Msg:   fmt.Sprintf("hashes %d outside [1, %d]", cfg.Geometry.Hashes, MaxGeometryHash),
		}
	}
	return &Subscriber{
		cfg:     cfg,
		queries: make(map[string]*query.Predicate),
	}, nil
}

// Mode returns the subscriber's summary mode.
func (s *Subscriber) Mode() Mode { return s.cfg.Mode }

// Subscribe adds subjects to the subscription set and re-advertises.
func (s *Subscriber) Subscribe(subjects ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := slices.Clone(s.subjects)
	for _, subj := range subjects {
		if subj == "" {
			return fmt.Errorf("pubsub: empty subject")
		}
		if i, found := slices.BinarySearch(next, subj); !found {
			next = slices.Insert(next, i, subj)
		}
	}
	s.subjects = next
	s.advertiseLocked()
	return nil
}

// Unsubscribe removes subjects and re-advertises. Bloom filters do not
// support deletion, so the filter is rebuilt from the remaining set — the
// freshest-row-wins gossip rule replaces the old advertisement wholesale.
func (s *Subscriber) Unsubscribe(subjects ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subjects = slices.DeleteFunc(slices.Clone(s.subjects), func(subj string) bool {
		return slices.Contains(subjects, subj)
	})
	s.advertiseLocked()
}

// SetPredicate installs an SQL selection predicate over item metadata, the
// "more complex selection criteria based on the meta-data associated with
// the news-items, in the form of an SQL query" (§8). It is typed
// (query.Parse), so an unknown field or a mistyped literal fails here. An
// empty string clears it.
func (s *Subscriber) SetPredicate(expr string) error {
	var pred *query.Predicate
	if expr != "" {
		var err error
		pred, err = query.Parse(expr)
		if err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.predicate = pred
	s.mu.Unlock()
	return nil
}

// SubscribeQuery registers a typed predicate subscription (ModePredicate):
// the item is delivered when the predicate matches its metadata exactly,
// and the predicate's compiled Bloom signature joins the advertised
// summary so the hierarchy only forwards items the predicate could match.
// Returns the canonical form of the query.
func (s *Subscriber) SubscribeQuery(src string) (string, error) {
	if s.cfg.Mode != ModePredicate {
		return "", fmt.Errorf("pubsub: SubscribeQuery requires ModePredicate (mode is %s)", s.cfg.Mode)
	}
	p, err := query.Parse(src)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries[p.String()] = p
	s.advertiseLocked()
	return p.String(), nil
}

// UnsubscribeQuery removes a predicate subscription by its source (any
// form that parses to the same canonical query) and re-advertises.
func (s *Subscriber) UnsubscribeQuery(src string) error {
	p, err := query.Parse(src)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.queries, p.String())
	s.advertiseLocked()
	return nil
}

// Queries returns the sorted canonical sources of the current predicate
// subscriptions.
func (s *Subscriber) Queries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.queries))
	for src := range s.queries {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// Subjects returns the sorted current subscription set. The slice is
// shared and must not be written; a later Subscribe or Unsubscribe leaves
// it as it is.
func (s *Subscriber) Subjects() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subjects
}

// advertiseLocked pushes the subscription summary into the agent's row.
func (s *Subscriber) advertiseLocked() {
	switch s.cfg.Mode {
	case ModeBloom:
		f := bloom.New(s.cfg.Geometry.Bits, s.cfg.Geometry.Hashes)
		for _, subj := range s.subjects {
			f.Add(subj)
		}
		s.cfg.Agent.SetAttr(astrolabe.AttrSubs, value.Bytes(f.Bytes()))

	case ModePredicate:
		// One signature filter carries this node's whole subscription set:
		// plain subjects compile as (those subjects, any publisher, any
		// urgency); each predicate contributes its compiled cover. It goes
		// out only as a single-member signature set under AttrSubGroups —
		// PrefixSubgroup clusters ancestors' sets into at most K subgroup
		// filters per zone row. No raw AttrSubs copy: duplicating the
		// filter would roughly double the summary's gossip bytes, and the
		// forwarding test never reads it.
		f := bloom.New(s.cfg.Geometry.Bits, s.cfg.Geometry.Hashes)
		if len(s.subjects) > 0 {
			query.SubjectsSignature(s.subjects).Fill(f)
		}
		for _, p := range s.queries {
			p.Compile().Fill(f)
		}
		s.cfg.Agent.SetAttrs(value.Map{
			astrolabe.AttrSubs: value.Invalid(),
			AttrSubGroups:      value.Bytes(bloom.EncodeSignatureSet(DefaultSubgroupK, [][]byte{f.Bytes()})),
		})
	}
}

// ShouldDeliver is the leaf's final test (§6): an exact subject match
// (discarding Bloom false positives) plus the optional SQL predicate over
// the item's metadata. In ModePredicate, typed query subscriptions also
// match by exact evaluation against the item metadata. Outcomes feed the
// configured Counters: an accept is an exact match, a reject is a
// false-positive drop (the envelope was forwarded here for nothing).
func (s *Subscriber) ShouldDeliver(env *wire.ItemEnvelope) bool {
	s.mu.Lock()
	ok := s.matchesLocked(env)
	s.mu.Unlock()
	if c := s.cfg.Counters; c != nil {
		if ok {
			c.ExactMatches.Add(1)
		} else {
			c.FalsePositiveDrops.Add(1)
		}
	}
	return ok
}

func (s *Subscriber) matchesLocked(env *wire.ItemEnvelope) bool {
	matched := false
	for _, subj := range env.Subjects {
		if _, ok := slices.BinarySearch(s.subjects, subj); ok {
			matched = true
			break
		}
	}
	if !matched && s.cfg.Mode == ModePredicate && len(s.queries) > 0 {
		row := ItemMetadataRow(env)
		for _, p := range s.queries {
			if p.Match(row) {
				matched = true
				break
			}
		}
	}
	if !matched {
		return false
	}
	if s.predicate != nil {
		return s.predicate.Match(ItemMetadataRow(env))
	}
	return true
}

// ItemMetadataRow renders an envelope's metadata as an attribute row for
// SQL predicate evaluation.
func ItemMetadataRow(env *wire.ItemEnvelope) value.Map {
	return value.Map{
		"publisher": value.String(env.Publisher),
		"item_id":   value.String(env.ItemID),
		"revision":  value.Int(int64(env.Revision)),
		"urgency":   value.Int(int64(env.Urgency)),
		"subjects":  value.Strings(env.Subjects),
		"published": value.Time(env.Published),
	}
}

// ForwardFilter builds the multicast filter that consults a child row's
// aggregated subscription summary — the conditional-forwarding test of §6.
// It is stateless with respect to any one subscriber: the decision reads
// only the row and the envelope. A non-nil ctr receives forwarding
// telemetry (positive decisions, subgroup filters consulted).
func ForwardFilter(mode Mode, geo Geometry, ctr *Counters) multicast.Filter {
	if geo.Bits == 0 {
		geo = DefaultGeometry
	}
	// Wildcard positions are fixed by the geometry; hash them once, not
	// per decision.
	wildSub := bloom.PositionsFor(query.WildSubject, geo.Bits, geo.Hashes)
	wildPub := bloom.PositionsFor(query.WildPublisher, geo.Bits, geo.Hashes)
	wildUrg := bloom.PositionsFor(query.WildUrgency, geo.Bits, geo.Hashes)
	// One expansion cache per filter closure (one per node): sparse
	// subgroup entries expand once per distinct row payload, not once per
	// forwarding decision.
	cache := &sparseProbeCache{}
	return func(zone string, row astrolabe.Row, env *wire.ItemEnvelope) bool {
		forward := false
		switch mode {
		case ModePredicate:
			forward = predicateForward(row, env, geo, ctr, cache, wildSub, wildPub, wildUrg)

		default: // ModeBloom
			subs, ok := row.Attrs[astrolabe.AttrSubs].RawBytes()
			if !ok || len(subs) != (geo.Bits+7)/8 {
				return false
			}
			// SubjectBits holds geo.Hashes positions per subject; the
			// item is forwarded if ANY subject fully matches. Test the
			// raw aggregated bytes directly — this runs once per child
			// row per forwarded item, so it must not allocate.
			k := geo.Hashes
		subjects:
			for i := 0; i+k <= len(env.SubjectBits); i += k {
				for _, pos := range env.SubjectBits[i : i+k] {
					if int(pos) >= geo.Bits || subs[pos/8]&(1<<(pos%8)) == 0 {
						continue subjects
					}
				}
				forward = true
				break
			}
		}
		if forward && ctr != nil {
			ctr.Forwards.Add(1)
		}
		return forward
	}
}

// predicateForward is the ModePredicate forwarding test. The item is
// forwarded when ANY filter of the row's subgroup signature set
// (AttrSubGroups) admits it on all three dimensions. A row without the
// attribute has no subscriber below it and is pruned; a row whose
// attribute is present but unreadable (a scrambled row mid-repair) fails
// open — the degradation is extra forwards, never lost deliveries. The
// signature-set walk is open-coded so the hot path does not allocate.
func predicateForward(row astrolabe.Row, env *wire.ItemEnvelope, geo Geometry, ctr *Counters, cache *sparseProbeCache, wildSub, wildPub, wildUrg []uint32) bool {
	subg := row.Attrs[AttrSubGroups]
	if !subg.IsValid() {
		return false
	}
	enc, ok := subg.RawBytes()
	if !ok {
		return true
	}
	_, n := binary.Uvarint(enc) // the set's K bound
	if n <= 0 {
		return true
	}
	enc = enc[n:]
	cnt, n := binary.Uvarint(enc)
	if n <= 0 || cnt > 1<<16 {
		return true
	}
	enc = enc[n:]
	nbytes := (geo.Bits + 7) / 8
	k := geo.Hashes
	sb := env.SubjectBits
	if len(sb) != (len(env.Subjects)+2)*k {
		// The envelope was encoded under a different mode or geometry;
		// recompute the position groups (allocates — correctness path).
		sb = predicatePositions(env, geo)
	}
	for i := uint64(0); i < cnt; i++ {
		l, n := binary.Uvarint(enc)
		if n <= 0 || uint64(len(enc)-n) < l {
			return true
		}
		blob := enc[n : n+int(l)]
		enc = enc[n+int(l):]
		if ctr != nil {
			ctr.SubgroupTests.Add(1)
		}
		if testSubgroupEntry(blob, sb, k, geo.Bits, nbytes, cache, wildSub, wildPub, wildUrg) {
			return true
		}
	}
	// Every subgroup filter was tested and none admits the item: the
	// whole subtree cannot match it.
	return false
}

// testSubgroupEntry reports whether one encoded subgroup filter entry
// admits an item's predicate position groups. Raw entries probe in place;
// sparse entries probe their cached expansion (expanded once per distinct
// row payload). An entry from a different geometry is skipped (false); a
// non-parsing one fails open (true), like the rest of an unreadable set.
func testSubgroupEntry(blob []byte, sb []uint32, k, bits, nbytes int, cache *sparseProbeCache, wildSub, wildPub, wildUrg []uint32) bool {
	if len(blob) == 0 {
		return true
	}
	switch blob[0] {
	case bloom.FilterRaw:
		f := blob[1:]
		if len(f) != nbytes {
			return false
		}
		return predicateAdmits(f, sb, k, bits, wildSub, wildPub, wildUrg)
	case bloom.FilterSparse:
		f, res := cache.expand(blob[1:], nbytes)
		switch res {
		case bloom.SparseOK:
			return predicateAdmits(f, sb, k, bits, wildSub, wildPub, wildUrg)
		case bloom.SparseWrongSize:
			return false
		}
	}
	return true
}

// sparseProbeCache amortizes sparse-entry expansion across forwarding
// decisions. Zone rows are copy-on-write shared values, so an entry's
// encoded bytes never mutate in place and a payload is identified by its
// backing array: the cache retains the encoded slice, which pins its
// address and makes pointer identity a sound key. Sixteen slots cover a
// zone's worth of child rows; eviction is a plain ring.
type sparseProbeCache struct {
	mu      sync.Mutex
	entries [16]sparseProbeEntry
	next    int
}

type sparseProbeEntry struct {
	enc      []byte
	expanded []byte
}

// expand returns the expanded bitmap for a sparse payload (the bytes
// after the entry tag). Cached bitmaps are immutable — callers only
// probe them — so they are shared without copying.
func (c *sparseProbeCache) expand(enc []byte, nbytes int) ([]byte, bloom.SparseExpandResult) {
	if len(enc) == 0 || c == nil {
		return nil, bloom.SparseMalformed
	}
	c.mu.Lock()
	for i := range c.entries {
		e := &c.entries[i]
		if len(e.enc) == len(enc) && &e.enc[0] == &enc[0] {
			f := e.expanded
			c.mu.Unlock()
			if len(f) != nbytes {
				return nil, bloom.SparseWrongSize
			}
			return f, bloom.SparseOK
		}
	}
	c.mu.Unlock()
	f := make([]byte, nbytes)
	res := bloom.ExpandSparseFilter(f, enc)
	if res != bloom.SparseOK {
		return nil, res
	}
	c.mu.Lock()
	c.entries[c.next] = sparseProbeEntry{enc: enc, expanded: f}
	c.next = (c.next + 1) % len(c.entries)
	c.mu.Unlock()
	return f, bloom.SparseOK
}

// predicateAdmits tests one signature filter against an item's predicate
// position groups. sb lays out one group of k positions per subject,
// then the publisher group, then the urgency group. The filter admits
// the item when every dimension is satisfied — by its wildcard key
// (dimension unconstrained somewhere in the subtree) or one of the
// item's value keys.
func predicateAdmits(f []byte, sb []uint32, k, bits int, wildSub, wildPub, wildUrg []uint32) bool {
	nsub := len(sb) - 2*k
	if nsub < 0 {
		return false
	}
	if !testPositions(f, bits, wildSub) {
		hit := false
		for i := 0; i+k <= nsub; i += k {
			if testPositions(f, bits, sb[i:i+k]) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	if !testPositions(f, bits, wildPub) && !testPositions(f, bits, sb[nsub:nsub+k]) {
		return false
	}
	return testPositions(f, bits, wildUrg) || testPositions(f, bits, sb[nsub+k:])
}

// testPositions reports whether every position is set in the filter bytes.
func testPositions(f []byte, bits int, pos []uint32) bool {
	for _, p := range pos {
		if int(p) >= bits || f[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

// predicatePositions computes an envelope's predicate-mode position
// groups from scratch — the layout EncodeItem emits in ModePredicate.
func predicatePositions(env *wire.ItemEnvelope, geo Geometry) []uint32 {
	out := make([]uint32, 0, (len(env.Subjects)+2)*geo.Hashes)
	for _, subj := range env.Subjects {
		out = append(out, bloom.PositionsFor(query.SubjectKey(subj), geo.Bits, geo.Hashes)...)
	}
	out = append(out, bloom.PositionsFor(query.PublisherKey(env.Publisher), geo.Bits, geo.Hashes)...)
	out = append(out, bloom.PositionsFor(query.UrgencyKey(env.Urgency), geo.Bits, geo.Hashes)...)
	return out
}

// EncodeItem builds the wire envelope for an item: NITF payload, subject
// bit positions for the configured mode, and mirrored routing metadata.
func EncodeItem(it *news.Item, mode Mode, geo Geometry, vocabulary []string) (wire.ItemEnvelope, error) {
	if geo.Bits == 0 {
		geo = DefaultGeometry
	}
	payload, err := news.MarshalNITF(it)
	if err != nil {
		return wire.ItemEnvelope{}, err
	}
	env := wire.ItemEnvelope{
		Publisher: it.Publisher,
		ItemID:    it.ID,
		Revision:  it.Revision,
		Subjects:  append([]string(nil), it.Subjects...),
		Urgency:   it.Urgency,
		Published: it.Published,
		Payload:   payload,
	}
	env.SealKey()
	switch mode {
	case ModePredicate:
		// One position group per dimension value under its namespaced
		// signature key, in the layout predicateAdmits expects: subjects,
		// then publisher, then urgency.
		env.SubjectBits = predicatePositions(&env, geo)
	default: // ModeBloom
		for _, subj := range it.Subjects {
			env.SubjectBits = append(env.SubjectBits,
				bloom.PositionsFor(subj, geo.Bits, geo.Hashes)...)
		}
	}
	return env, nil
}

// DecodeItem parses the envelope payload back into an item and
// cross-checks the envelope's routing metadata against it, so a forwarder
// cannot smuggle an item into subjects it does not carry. The item's
// strings view the payload, which a sealed envelope never writes
// (wire.ItemEnvelope): a caller that keeps one field and not the article
// clones it.
func DecodeItem(env *wire.ItemEnvelope) (*news.Item, error) {
	it, err := news.ViewNITF(env.Payload)
	if err != nil {
		return nil, err
	}
	if it.Publisher != env.Publisher || it.ID != env.ItemID || it.Revision != env.Revision {
		return nil, fmt.Errorf("pubsub: envelope identity %s does not match payload %s",
			env.Key(), it.Key())
	}
	if len(it.Subjects) != len(env.Subjects) {
		return nil, fmt.Errorf("pubsub: envelope subjects %v do not match payload %v",
			env.Subjects, it.Subjects)
	}
	for i := range it.Subjects {
		if it.Subjects[i] != env.Subjects[i] {
			return nil, fmt.Errorf("pubsub: envelope subjects %v do not match payload %v",
				env.Subjects, it.Subjects)
		}
	}
	return it, nil
}
