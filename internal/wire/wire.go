// Package wire defines the messages NewsWire nodes exchange: Astrolabe
// gossip exchanges, application-level multicast forwards (which carry news
// items), and cache state-transfer requests used for end-to-end recovery
// and joining nodes (paper §9).
//
// The same Message structs travel over both transports. The in-memory
// simulated transport passes them by value — payload fields must therefore
// be treated as immutable once sent. The TCP transport serializes them with
// the compact binary codec in codec.go, the only wire format.
package wire

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unsafe"

	"newswire/internal/value"
)

// Kind discriminates message payloads.
type Kind uint8

// Message kinds.
const (
	KindInvalid Kind = iota
	// Kinds 1 and 2 carried the full-state anti-entropy exchange, retired
	// for the delta exchange below. They stay reserved so no other kind's
	// byte moves, and a frame carrying either is rejected as unknown.
	_
	_
	KindMulticast    // SendToZone forward carrying a news item
	KindStateRequest // cache state transfer: give me recent items
	KindStateReply   // cache state transfer: here they are
	KindGossipDigest // delta anti-entropy: initiator's row digest
	KindGossipDelta  // delta anti-entropy: missing/stale rows + wants
	KindMulticastAck // per-forward delivery acknowledgment
	KindClockPing    // clock-offset probe (transport-level, not routed)
	KindClockPong    // clock-offset reply echoing the probe
)

// String returns the kind name for logs.
func (k Kind) String() string {
	switch k {
	case KindMulticast:
		return "multicast"
	case KindStateRequest:
		return "state-request"
	case KindStateReply:
		return "state-reply"
	case KindGossipDigest:
		return "gossip-digest"
	case KindGossipDelta:
		return "gossip-delta"
	case KindMulticastAck:
		return "multicast-ack"
	case KindClockPing:
		return "clock-ping"
	case KindClockPong:
		return "clock-pong"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RowUpdate is one gossiped MIB row: the attributes a zone member (or an
// aggregated child zone) exports, stamped with the owner's issue time.
// Receivers keep whichever copy of a row has the later issue time — the
// epidemic freshness rule that makes Astrolabe eventually consistent.
//
// The byte and string fields of a row — Sig, and the strings, byte arrays
// and string lists in Attrs — are shared and never written: a merged row is
// read by every holder of its SharedRow, and a decoded row's are views of
// the row's own buffer (DESIGN.md §8, "Row ownership"). RawBytes and
// RawStrings hand out the shared slices themselves; code that edits one
// copies it first, as BIT_OR does. To change a row, build a new one.
type RowUpdate struct {
	// Zone is the path of the table this row lives in, e.g. "/usa/ny".
	Zone string
	// Name identifies the row within the table: a leaf node name or a
	// child zone name.
	Name string
	// Attrs is the row's attribute map.
	Attrs value.Map
	// Issued is when the row owner last wrote the row.
	Issued time.Time
	// Owner is the address of the agent that issued the row (for leaf
	// rows) or the representative that computed it (aggregate rows).
	Owner string
	// Signer and Sig authenticate the row (empty when signing is off).
	Signer string
	Sig    []byte

	// shared is the immutable SharedRow this update was rendered from,
	// when it was (see SharedRow.Update). It lets receivers on the
	// in-memory transport install the sender's row by reference instead
	// of copying. Unexported on purpose: it never travels over a real
	// wire (the codec skips it), and decoded messages leave it nil.
	shared *SharedRow
}

// SignedPayload renders the row fields covered by the owner's signature:
// everything except the signature fields themselves.
func (r *RowUpdate) SignedPayload() []byte { return r.AppendSignedPayload(nil) }

// AppendSignedPayload appends SignedPayload's bytes to dst, so the sign
// and verify paths can render into a reused buffer.
func (r *RowUpdate) AppendSignedPayload(dst []byte) []byte {
	dst = append(dst, r.Zone...)
	dst = append(dst, 0)
	dst = append(dst, r.Name...)
	dst = append(dst, 0)
	dst = r.Attrs.AppendBinary(dst)
	dst = strconv.AppendInt(dst, r.Issued.UnixNano(), 10)
	dst = append(dst, 0)
	return append(dst, r.Owner...)
}

// RowRef names one row the sender wants the full update for.
type RowRef struct {
	Zone string
	Name string
}

// ZoneSection summarizes one replicated zone table for delta anti-entropy:
// what the sender holds, in a form a peer holding the same content can read
// against its own table. Rows appear in ascending name order, and a row's
// position in that order is how the rest of the exchange refers to it.
//
// A bare section (Named empty) carries only freshness: a receiver whose own
// table has the same Hash and row count holds the same names and attribute
// bytes, so it reads both from its own table by position. A named section
// attaches every row's name and attrs hash; it answers a bare section whose
// Hash did not match. The section of an empty table has nothing to name and
// is bare: whether Named is empty is the one thing that tells the two kinds
// apart, in the codec and in the agent alike, and a frame that marks a
// section named and gives it no rows is refused.
type ZoneSection struct {
	// Depth selects the table: the index of its zone in the ancestor chain
	// of the sender's FromZone, 0 being the root. Only tables both agents
	// replicate are exchanged, and for those the two chains agree.
	Depth int
	// Hash is the sender's content hash of the table: a 64-bit hash of its
	// (row name, attrs hash) set. Issue stamps, owners and signatures are
	// not part of it.
	Hash uint64
	// Newest is the latest issue stamp in the table; Lags holds, per row,
	// how far the row's stamp lies behind it.
	Newest time.Time
	Lags   []time.Duration
	// Named is empty, or one entry per row of Lags in strictly ascending
	// name order.
	Named []RowSummary
}

// RowSummary is one row of a named ZoneSection: its name and the FNV-64a
// hash of its canonical attribute encoding.
type RowSummary struct {
	Name string
	Hash uint64
}

// ZoneStamps re-issues rows of one zone table whose attribute bytes the
// receiver already holds: both sides store the same content and only the
// receiver's issue time lags. It answers a ZoneSection the receiver sent
// and names rows by their position in it. Hash echoes that section's Hash;
// the positions mean what they meant only while the receiver's table still
// hashes to it, so a receiver whose table has changed since drops the
// stamps. Only unsigned rows may be stamped: re-stamping a signed row would
// fabricate a row state the owner never signed.
type ZoneStamps struct {
	Depth  int
	Hash   uint64
	Newest time.Time
	Rows   []RowStamp
}

// RowStamp moves the row at position Pos of the answered section to the
// issue time Lag before the ZoneStamps' Newest.
type RowStamp struct {
	Pos uint32
	Lag time.Duration
}

// GossipDigest is the request leg of a delta anti-entropy exchange: the
// initiator sends one bare section per table the two agents share,
// root-first, so the partner can reply with only what the initiator is
// missing or stale on.
type GossipDigest struct {
	// FromZone is the initiator's leaf zone path, which tells the
	// receiver which ancestor tables the two agents share.
	FromZone string
	Sections []ZoneSection
}

// GossipDelta is the transfer leg of a delta exchange. The digest receiver
// answers each section whose Hash matched its own table with the rows the
// initiator needs, Want refs of the rows the initiator holds fresher, and
// Stamps; a section whose Hash did not match it answers with its own named
// section, which the initiator diffs the same way and answers with a delta
// of its own. A delta that answers a section never carries one, and a
// non-empty Want is closed by a rows-only delta, so an exchange ends after
// at most four messages.
type GossipDelta struct {
	FromZone string
	Rows     []RowUpdate
	Want     []RowRef
	Stamps   []ZoneStamps
	Sections []ZoneSection
}

// ItemEnvelope wraps a published news item as it travels through the
// multicast tree. The envelope carries everything a forwarder needs to
// route without parsing the payload: the Bloom bit positions of the item's
// subjects (§6), the exact subjects for the leaf's final match, an optional
// publisher predicate over child-zone attributes (§8), and the publisher's
// signature (§8).
//
// An envelope is shared read-only as a whole once it is sealed (by Seal,
// or by the binary decoder): the node's item table keeps it, every fan-out
// frame relays its encoded span, and each delivered news.Item views its
// Payload, all concurrently (DESIGN.md §8, "Envelope ownership"). No field
// of a sealed envelope is written, through any copy of it: struct copies
// share its slices and its span, and a span that disagreed with the fields
// would relay one item under another's routing data. The byte fields are
// filled in three places, each with bytes nobody else holds:
// pubsub.EncodeItem (a fresh NITF encoding, signed by
// core.Security.signEnvelope with a fresh signature before it is
// published), the binary decoder (the envelope's own copy) and
// newswire-loadgen (a fresh buffer per item). To change a field, build a
// new envelope.
type ItemEnvelope struct {
	Publisher string
	ItemID    string
	Revision  int
	// Subjects are the exact subscription subjects this item matches.
	Subjects []string
	// SubjectBits are the Bloom positions of the subjects, precomputed by
	// the publisher.
	SubjectBits []uint32
	// ScopeZone restricts dissemination to a subtree ("" means root).
	ScopeZone string
	// Predicate optionally gates forwarding on child-zone attributes.
	Predicate string
	// Urgency mirrors the item's NITF editorial urgency (1 flash .. 8
	// routine) so forwarding components can prioritize without parsing
	// the payload (§9's queue-filling strategies).
	Urgency int
	// Published is the publisher's timestamp.
	Published time.Time
	// Payload is the encoded news item (NITF-like XML).
	Payload []byte
	// Signer and Sig authenticate the envelope.
	Signer string
	Sig    []byte

	// key is Key() computed once, by SealKey; struct copies carry it. A
	// plain field, never filled lazily: envelopes are read concurrently
	// (shared fan-out frames, the cache). Its bytes are a region of the key
	// slab, never a view of a decoded envelope's buffer: tables that keep a
	// key must not keep the item.
	key string
	// span is the envelope's encoding, kept by Seal or by the decoder (the
	// envelope's own copy, which its strings and byte arrays view). A frame
	// that carries the envelope sends these bytes after its header instead
	// of encoding the fields again. Nil until sealed.
	span []byte
}

// Key returns the deduplication key for the envelope: publisher, item and
// revision ("News items are uniquely identified by the publisher as part of
// the news item meta-data; this can be used to remove duplicates", §9).
// On a sealed envelope it costs nothing.
func (e *ItemEnvelope) Key() string {
	if e.key != "" {
		return e.key
	}
	return e.buildKey()
}

func (e *ItemEnvelope) buildKey() string {
	var buf [64]byte
	return string(e.appendKey(buf[:0]))
}

// appendKey appends the key, Publisher/ItemID#Revision, to dst.
func (e *ItemEnvelope) appendKey(dst []byte) []byte {
	dst = append(dst, e.Publisher...)
	dst = append(dst, '/')
	dst = append(dst, e.ItemID...)
	dst = append(dst, '#')
	return strconv.AppendInt(dst, int64(e.Revision), 10)
}

// keySlab is the slab sealed keys are carved from (DESIGN.md §8, "Envelope
// ownership"). An item table keeps a key long after its envelope, so a key
// lives in neither the envelope's span nor a decode buffer; and a region,
// written once by SealKey before the key escapes, is never handed out
// again.
var keySlab Slab[byte]

// SealKey computes the key once, into a region of the key slab, and stores
// it in the envelope. The two places that create envelopes call it — the
// binary decoder and pubsub.EncodeItem — after which Publisher, ItemID and
// Revision must not change: to edit an identity, build a new envelope.
func (e *ItemEnvelope) SealKey() {
	var buf [64]byte
	b := keySlab.Copy(e.appendKey(buf[:0]))
	e.key = unsafe.String(unsafe.SliceData(b), len(b))
}

// Seal encodes the envelope once and keeps the encoding, and seals the key
// if SealKey has not. Router.Publish calls it after its last field write;
// from then on the envelope is shared read-only and every frame that
// carries it sends the kept encoding.
func (e *ItemEnvelope) Seal() {
	e.span = nil // envelopeSize reads a kept span
	span := appendEnvelope(make([]byte, 0, envelopeSize(e)), e)
	// Payload and Sig view the span, as a decoded envelope's do, so the
	// sealed envelope holds its bytes once. The span ends with the payload,
	// the signer and the signature.
	end := len(span) - sizeBytes(e.Sig) - sizeStr(e.Signer)
	e.Payload = viewTail(span[:end], len(e.Payload))
	e.Sig = viewTail(span, len(e.Sig))
	e.span = span
	if e.key == "" {
		e.SealKey()
	}
}

// viewTail returns b's last n bytes, capacity clipped, or nil when n is 0.
func viewTail(b []byte, n int) []byte {
	if n == 0 {
		return nil
	}
	return b[len(b)-n : len(b) : len(b)]
}

// SignedPayload renders the envelope fields covered by the publisher
// signature.
func (e *ItemEnvelope) SignedPayload() []byte { return e.AppendSignedPayload(nil) }

// AppendSignedPayload appends SignedPayload's bytes to dst, so the sign
// and verify paths can render into a reused buffer.
func (e *ItemEnvelope) AppendSignedPayload(dst []byte) []byte {
	dst = append(dst, e.Publisher...)
	dst = append(dst, 0)
	dst = append(dst, e.ItemID...)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(e.Revision), 10)
	dst = append(dst, 0)
	for _, s := range e.Subjects {
		dst = append(dst, s...)
		dst = append(dst, 0)
	}
	dst = append(dst, e.ScopeZone...)
	dst = append(dst, 0)
	dst = append(dst, e.Predicate...)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, e.Published.UnixNano(), 10)
	dst = append(dst, 0)
	return append(dst, e.Payload...)
}

// Multicast is a SendToZone forward: deliver the envelope to every
// subscribed leaf under TargetZone.
type Multicast struct {
	// TargetZone is the zone whose subtree this hop is responsible for.
	TargetZone string
	// Hops counts forwarding hops so far, for loop protection and metrics.
	Hops int
	// Deliver marks a final-delivery copy: the receiver delivers the item
	// to its application and does not fan out further. Leaf-zone
	// representatives use it when distributing to their zone's members.
	Deliver bool
	// AckSeq, when non-zero, asks the receiver to confirm this forward
	// with a MulticastAck echoing the value. The sender retransmits
	// unacknowledged forwards; receivers must treat re-sent copies as
	// idempotent (the node's item table already does).
	AckSeq uint64
	// TraceID joins this forward's trace spans across process boundaries:
	// every hop of one published item carries the same ID (derived
	// deterministically from the envelope key), so collectors reading
	// /trace.json from several nodes can reassemble the full
	// publish→forward→deliver path. Always stamped — whether tracing is
	// on changes nothing on the wire, keeping traced and untraced runs
	// byte-identical.
	TraceID  uint64
	Envelope ItemEnvelope
}

// MulticastAck confirms receipt of one acked Multicast forward. Key and
// TargetZone echo the forward so the sender can sanity-check that the ack
// matches the retransmit-table entry before clearing it.
type MulticastAck struct {
	// Seq echoes the forward's AckSeq.
	Seq uint64
	// Key echoes the envelope's dedup key.
	Key string
	// TargetZone echoes the forward's target zone.
	TargetZone string
}

// ClockSync carries the NTP-style clock-offset handshake the TCP
// transport runs over established connections (DESIGN.md §12). The
// initiator sends a KindClockPing with T1 = its wall clock at transmit;
// the peer answers KindClockPong echoing T1 and adding T2 = its own wall
// clock at receipt. The initiator then estimates the peer's clock offset
// as T2 − (T1+T3)/2 with T3 its receive time, which is exact when the
// path is symmetric. Both kinds are intercepted inside the transport and
// never reach the node's message handler.
type ClockSync struct {
	// Seq matches a pong to its ping (stale replies are dropped).
	Seq uint64
	// T1 is the initiator's transmit time, Unix nanoseconds.
	T1 int64
	// T2 is the responder's receive/transmit time, Unix nanoseconds
	// (zero in pings).
	T2 int64
}

// StateRequest asks a peer's cache for the items published since a time
// that the requester does not already hold. Joining nodes, end-to-end
// recovery after forwarder failures and the periodic item anti-entropy all
// send it; the reply carries only the difference, so a caught-up requester
// costs one summary and an empty reply.
type StateRequest struct {
	Since    time.Time
	MaxItems int
	// Subjects restricts the transfer to items matching the requester's
	// subscriptions (empty means all cached items).
	Subjects []string
	// Have summarizes what the requester already caches from Since on: the
	// ItemHash under Salt of every such envelope key, ascending, 8 bytes an
	// item and never more entries than the requester's cache holds. The
	// responder leaves out every envelope whose hash is listed before it
	// applies MaxItems. Two keys that collide under one salt would hide an
	// item the requester lacks, so requesters draw a fresh Salt for every
	// exchange: the same pair does not collide under the next. Empty means
	// "send everything in the window"; Salt travels only with a non-empty
	// Have.
	Salt uint64
	Have []uint64
}

// ItemHash is the summary hash of an envelope key under a request's salt:
// FNV-1a over the key, started from the salted offset basis so the salt
// steers every step and a collision under one salt says nothing about the
// next.
func ItemHash(salt uint64, key string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := offset64 ^ salt
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// StateReply returns the requested cache contents.
type StateReply struct {
	Envelopes []ItemEnvelope
	// Truncated reports that MaxItems cut the transfer short.
	Truncated bool
}

// Message is the transport-level envelope.
type Message struct {
	Kind Kind
	// bodySize is EstimateSize less the header (magic, kind, From), as
	// SealSize recorded it; 0 when it was not recorded. It sits in the
	// padding after Kind, so the message is no larger for it.
	bodySize uint32
	// From is the sender's transport address, so receivers can reply.
	From string

	GossipDigest *GossipDigest
	GossipDelta  *GossipDelta
	Multicast    *Multicast
	MulticastAck *MulticastAck
	StateRequest *StateRequest
	StateReply   *StateReply
	ClockSync    *ClockSync
}

// Validate checks that the message has exactly the payload its kind
// promises. Transports call it on receipt so protocol code can trust the
// payload pointer.
func (m *Message) Validate() error {
	var want bool
	switch m.Kind {
	case KindMulticast:
		want = m.Multicast != nil
	case KindStateRequest:
		want = m.StateRequest != nil
	case KindStateReply:
		want = m.StateReply != nil
	case KindGossipDigest:
		want = m.GossipDigest != nil
	case KindGossipDelta:
		want = m.GossipDelta != nil
	case KindMulticastAck:
		want = m.MulticastAck != nil
	case KindClockPing, KindClockPong:
		want = m.ClockSync != nil
	default:
		return fmt.Errorf("wire: unknown message kind %d", m.Kind)
	}
	if !want {
		return fmt.Errorf("wire: %s message missing payload", m.Kind)
	}
	return nil
}

// Encode serializes the message for the TCP transport. The returned slice
// is freshly allocated and owned by the caller; scratch buffers behind it
// are pooled.
func Encode(m *Message) ([]byte, error) {
	return encodeBinary(m, m.From, 0)
}

var errBadMagic = errors.New("wire: decode: frame does not start with the codec magic byte")

// Decode deserializes a message produced by Encode and validates it.
// Anything that does not start with the codec's magic byte — empty input
// included — is rejected before a byte of it is parsed.
func Decode(data []byte) (*Message, error) {
	if len(data) == 0 || data[0] != codecMagic {
		return nil, errBadMagic
	}
	return decodeBinary(data)
}

// GossipTableOverhead approximates the interned string table a row-bearing
// gossip frame carries up front (a handful of zone paths and attribute
// names, each shipped once). A constant keeps byte accounting cheap and
// deterministic; the true table is within a few dozen bytes of it for
// realistic gossip exchanges.
const GossipTableOverhead = 48

// EstimateSize returns the on-the-wire size of the message under the
// binary codec without serializing it. It is exact for every kind except
// frames that carry gossip rows, whose interned string table (zone paths
// and attribute names) is charged as GossipTableOverhead with one byte per
// reference into it; a digest has no table and a delta without rows has
// one of zone paths only, so both are exact. The simulated network uses it
// for the byte-load counters behind experiments E4 and E8, and the gossip
// agent charges the same figure to GossipBytesSent (SealSize).
func (m *Message) EstimateSize() int {
	body := int(m.bodySize)
	if body == 0 {
		body = m.estimateBody()
	}
	return 2 + sizeStr(m.From) + body // magic, kind, sender, payload
}

// SealSize records the message's size on it and returns EstimateSize, so
// that later calls read the record instead of walking the payload again.
// It is for a builder that never writes the payload after it: a gossip
// frame, whose size the agent counts and the simulated network charges.
// The sender is not in the record, so a transport that stamps From still
// reads the right size.
func (m *Message) SealSize() int {
	if n := m.estimateBody(); n <= math.MaxUint32 {
		m.bodySize = uint32(n)
	}
	return m.EstimateSize()
}

// estimateBody is EstimateSize's payload part.
func (m *Message) estimateBody() int {
	n := 0
	switch {
	case m.GossipDigest != nil:
		g := m.GossipDigest
		n += sizeStr(g.FromZone) + sectionsSize(g.Sections)
	case m.GossipDelta != nil:
		g := m.GossipDelta
		if len(g.Rows) > 0 {
			n += GossipTableOverhead
		} else {
			n += zoneTableSize(g.FromZone, g.Want)
		}
		n += 1 + uvarintLen(uint64(len(g.Rows))) + rowsSize(g.Rows) +
			uvarintLen(uint64(len(g.Want))) + refsSize(g.Want)
		// The stamps and sections are written only when there are any, the
		// stamp count (zero included) whenever sections follow it.
		if len(g.Stamps) > 0 || len(g.Sections) > 0 {
			n += uvarintLen(uint64(len(g.Stamps)))
			for i := range g.Stamps {
				n += zoneStampsSize(&g.Stamps[i])
			}
		}
		if len(g.Sections) > 0 {
			n += sectionsSize(g.Sections)
		}
	case m.Multicast != nil:
		n += multicastHeadSize(m.Multicast) + envelopeSize(&m.Multicast.Envelope)
	case m.MulticastAck != nil:
		a := m.MulticastAck
		n += uvarintLen(a.Seq) + sizeStr(a.Key) + sizeStr(a.TargetZone)
	case m.StateRequest != nil:
		r := m.StateRequest
		n += sizeTime(r.Since) + varintLen(int64(r.MaxItems)) +
			uvarintLen(uint64(len(r.Subjects)))
		for _, s := range r.Subjects {
			n += sizeStr(s)
		}
		n += haveSize(r.Have)
	case m.StateReply != nil:
		n += uvarintLen(uint64(len(m.StateReply.Envelopes))) + 1
		for i := range m.StateReply.Envelopes {
			n += envelopeSize(&m.StateReply.Envelopes[i])
		}
	case m.ClockSync != nil:
		c := m.ClockSync
		n += uvarintLen(c.Seq) + varintLen(c.T1) + varintLen(c.T2)
	}
	return n
}

// rowsSize sums rowSize over rows, reading the attribute payload size
// from the shared row's cache when the update carries one (the gossip
// send path always does) and computing it alloc-free otherwise.
func rowsSize(rows []RowUpdate) int {
	n := 0
	for i := range rows {
		r := &rows[i]
		aw := 0
		if r.shared != nil {
			aw = r.shared.WireAttrsSize()
		} else {
			aw = attrsWireSize(r.Attrs)
		}
		n += rowSize(r, aw)
	}
	return n
}

// rowSize returns one RowUpdate's wire size given its attribute payload
// size. The zone string is charged one byte — its table reference —
// because the string itself rides in the message's interned table.
func rowSize(r *RowUpdate, attrsLen int) int {
	return 1 + sizeStr(r.Name) + sizeTime(r.Issued) + sizeStr(r.Owner) +
		sizeStr(r.Signer) + sizeBytes(r.Sig) + attrsLen
}

// refsSize returns the wire size of a row-ref list: per ref a zone-table
// reference and the name string.
func refsSize(refs []RowRef) int {
	n := 0
	for i := range refs {
		n += 1 + sizeStr(refs[i].Name)
	}
	return n
}

// zoneTableSize returns the exact size of the string table of a delta that
// carries no rows: its entry count, FromZone, and every further distinct
// zone path among the want refs. Refs arrive grouped by zone, so looking
// backwards for an earlier use of a ref's zone ends at its neighbour for
// all but the first ref of each zone.
func zoneTableSize(fromZone string, want []RowRef) int {
	entries, n := 1, sizeStr(fromZone)
	for i := range want {
		z := want[i].Zone
		seen := z == fromZone
		for j := i - 1; j >= 0 && !seen; j-- {
			seen = want[j].Zone == z
		}
		if !seen {
			entries++
			n += sizeStr(z)
		}
	}
	return uvarintLen(uint64(entries)) + n
}

// sectionsSize returns the wire size of a section list with its count.
func sectionsSize(sections []ZoneSection) int {
	n := uvarintLen(uint64(len(sections)))
	for i := range sections {
		s := &sections[i]
		n += uvarintLen(sectionHead(s)) + 8 + sizeTime(s.Newest) + uvarintLen(uint64(len(s.Lags)))
		for _, lag := range s.Lags {
			n += uvarintLen(uint64(lag))
		}
		for j := range s.Named {
			n += sizeStr(s.Named[j].Name) + 8
		}
	}
	return n
}

// sectionHead packs a section's depth and whether it is named into the
// one integer that opens it on the wire.
func sectionHead(s *ZoneSection) uint64 {
	head := uint64(s.Depth) << 1
	if len(s.Named) > 0 {
		head |= 1
	}
	return head
}

func zoneStampsSize(z *ZoneStamps) int {
	n := uvarintLen(uint64(z.Depth)) + 8 + sizeTime(z.Newest) + uvarintLen(uint64(len(z.Rows)))
	for _, r := range z.Rows {
		n += uvarintLen(uint64(r.Pos)) + uvarintLen(uint64(r.Lag))
	}
	return n
}

// haveSize returns the wire size of a state request's summary section:
// the salt, a count and 8 bytes per hash. Like the stamp section it is
// present only when non-empty, so a request without a summary costs what it
// did before summaries existed.
func haveSize(have []uint64) int {
	if len(have) == 0 {
		return 0
	}
	return 8 + uvarintLen(uint64(len(have))) + 8*len(have)
}

func envelopeSize(e *ItemEnvelope) int {
	if e.span != nil {
		return len(e.span) // what a frame sends
	}
	n := sizeStr(e.Publisher) + sizeStr(e.ItemID) + varintLen(int64(e.Revision)) +
		uvarintLen(uint64(len(e.Subjects)))
	for _, s := range e.Subjects {
		n += sizeStr(s)
	}
	n += uvarintLen(uint64(len(e.SubjectBits)))
	for _, b := range e.SubjectBits {
		n += uvarintLen(uint64(b))
	}
	n += sizeStr(e.ScopeZone) + sizeStr(e.Predicate) + varintLen(int64(e.Urgency)) +
		sizeTime(e.Published) + sizeBytes(e.Payload) + sizeStr(e.Signer) +
		sizeBytes(e.Sig)
	return n
}
