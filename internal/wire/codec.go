package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
	"unsafe"

	"newswire/internal/value"
)

// Binary wire codec (DESIGN.md §8).
//
// Layout: every frame starts with codecMagic and the kind byte, then the
// sender address, then — for the three gossip kinds that can carry rows —
// an interned string table holding each distinct zone path and attribute
// name once, then the kind's payload. Payload fields reference table
// entries by index, so a 64-row gossip exchange carries "/usa/ny" and
// "subs" one time each instead of 64. A digest needs no table: its sections
// name their zones by depth below the sender's FromZone, and their rows by
// position. Integers travel as varints, times as Unix seconds +
// nanoseconds, and byte-array attribute values (the dominant row weight:
// 128-byte subscription Bloom filters that are mostly zero) switch to a
// zero-run packing whenever that is smaller than the raw bytes.
const (
	codecMagic     = 0xB7
	packedBytesTag = 0xF0 // distinct from every value.Kind byte
	// minZeroRun is the shortest zero run worth breaking a literal for:
	// each run pair costs two framing bytes.
	minZeroRun = 3
	// maxPackedLen caps the claimed decoded size of a packed byte array
	// (mirrors the transport's frame cap) so a tiny adversarial frame
	// cannot demand a huge allocation.
	maxPackedLen = 16 << 20
)

// zeroTimeUnixSec is time.Time{}.Unix(); the codec maps this instant back
// to the zero Time so IsZero survives a round trip (StateRequest.Since).
const zeroTimeUnixSec = -62135596800

// SniffKind reports a frame payload's kind without decoding it: the codec
// leads every frame with its magic byte and the kind. It returns false for
// a payload Decode would reject on those two bytes alone. Raw-socket
// consumers (the loadgen sink) use it to separate transport-internal
// clock-sync frames from the news stream cheaply.
func SniffKind(payload []byte) (Kind, bool) {
	if len(payload) < 2 || payload[0] != codecMagic {
		return KindInvalid, false
	}
	k := Kind(payload[1])
	if k == KindInvalid || k > KindClockPong {
		return KindInvalid, false
	}
	return k, true
}

// --- varint sizing helpers (shared with the EstimateSize model) ---

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

func sizeStr(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func sizeBytes(b []byte) int { return uvarintLen(uint64(len(b))) + len(b) }

func sizeTime(t time.Time) int {
	return varintLen(t.Unix()) + uvarintLen(uint64(t.Nanosecond()))
}

// valueWireSize returns the exact encoded size of one attribute value
// under appendWireValue, without allocating.
func valueWireSize(v value.Value) int {
	switch v.Kind() {
	case value.KindBool:
		return 2
	case value.KindInt:
		i, _ := v.AsInt()
		return 1 + varintLen(i)
	case value.KindFloat:
		return 9
	case value.KindString:
		s, _ := v.AsString()
		return 1 + sizeStr(s)
	case value.KindBytes:
		raw, _ := v.RawBytes()
		rawSize := 1 + sizeBytes(raw)
		if p := packedBytesSize(raw); p < rawSize {
			return p
		}
		return rawSize
	case value.KindTime:
		t, _ := v.AsTime()
		return 1 + varintLen(t.UnixNano())
	case value.KindStrings:
		ss, _ := v.RawStrings()
		n := 1 + uvarintLen(uint64(len(ss)))
		for _, s := range ss {
			n += sizeStr(s)
		}
		return n
	default: // KindInvalid and future kinds: bare kind byte
		return 1
	}
}

// attrsWireSize returns the exact payload size of an encoded attribute
// map: count prefix plus, per attribute, a one-byte table reference and
// the value. (Reference indices above 127 would take two bytes; a message
// never interns that many distinct names in practice.)
func attrsWireSize(m value.Map) int {
	n := uvarintLen(uint64(len(m)))
	for _, v := range m {
		n += 1 + valueWireSize(v)
	}
	return n
}

// --- primitive append helpers ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendByteSlice(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// appendWireValue encodes one attribute value: the canonical value
// encoding, except byte arrays, which use the zero-run packing when it is
// strictly smaller. valueWireSize must mirror this choice exactly.
func appendWireValue(dst []byte, v value.Value) []byte {
	if raw, ok := v.RawBytes(); ok {
		rawSize := 1 + sizeBytes(raw)
		if packedBytesSize(raw) < rawSize {
			return appendPackedBytes(dst, raw)
		}
	}
	return v.AppendBinary(dst)
}

// packedRuns walks raw as alternating (zero run, literal) pairs, keeping
// literals together across zero runs shorter than minZeroRun. The loop is
// duplicated in packedBytesSize to keep both paths allocation-free; the
// codec tests pin their agreement.
func appendPackedBytes(dst, raw []byte) []byte {
	dst = append(dst, packedBytesTag)
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	i := 0
	for i < len(raw) {
		z := i
		for i < len(raw) && raw[i] == 0 {
			i++
		}
		zeros := i - z
		start := i
		j := i
		for j < len(raw) {
			if raw[j] != 0 {
				j++
				continue
			}
			k := j
			for k < len(raw) && raw[k] == 0 {
				k++
			}
			if k-j >= minZeroRun || k == len(raw) {
				break
			}
			j = k
		}
		dst = binary.AppendUvarint(dst, uint64(zeros))
		dst = binary.AppendUvarint(dst, uint64(j-start))
		dst = append(dst, raw[start:j]...)
		i = j
	}
	return dst
}

// packedBytesSize returns len(appendPackedBytes(nil, raw)) without
// encoding.
func packedBytesSize(raw []byte) int {
	n := 1 + uvarintLen(uint64(len(raw)))
	i := 0
	for i < len(raw) {
		z := i
		for i < len(raw) && raw[i] == 0 {
			i++
		}
		zeros := i - z
		start := i
		j := i
		for j < len(raw) {
			if raw[j] != 0 {
				j++
				continue
			}
			k := j
			for k < len(raw) && raw[k] == 0 {
				k++
			}
			if k-j >= minZeroRun || k == len(raw) {
				break
			}
			j = k
		}
		n += uvarintLen(uint64(zeros)) + uvarintLen(uint64(j-start)) + (j - start)
		i = j
	}
	return n
}

// --- encoder ---

type binEncoder struct {
	head    []byte // magic, kind, from, string table
	body    []byte // payload, encoded against the table
	err     error  // a payload the codec cannot represent
	keys    []string
	tblList []string
	tblIdx  map[string]uint32
}

var binEncPool = sync.Pool{
	New: func() any { return &binEncoder{tblIdx: make(map[string]uint32, 16)} },
}

// maxPooledBuf caps the size of buffers returned to the pool so one huge
// state transfer does not pin its worth of memory forever.
const maxPooledBuf = 1 << 20

func (e *binEncoder) reset() {
	e.head = e.head[:0]
	e.body = e.body[:0]
	e.err = nil
	for _, s := range e.tblList {
		delete(e.tblIdx, s)
	}
	e.tblList = e.tblList[:0]
}

func (e *binEncoder) release() {
	if cap(e.head) > maxPooledBuf {
		e.head = nil
	}
	if cap(e.body) > maxPooledBuf {
		e.body = nil
	}
	e.reset()
	binEncPool.Put(e)
}

// ref interns s into the message's string table and returns its index.
func (e *binEncoder) ref(s string) uint64 {
	if i, ok := e.tblIdx[s]; ok {
		return uint64(i)
	}
	i := uint32(len(e.tblList))
	e.tblIdx[s] = i
	e.tblList = append(e.tblList, s)
	return uint64(i)
}

// encodeBinary serializes m with the sender address stamped as from (the
// Message itself is never written to, so one message can be encoded
// concurrently from many goroutines). The returned slice carries prefix
// unwritten bytes up front — NewFrame reserves the transport's length
// prefix there so frame assembly costs no second copy.
func encodeBinary(m *Message, from string, prefix int) ([]byte, error) {
	e := binEncPool.Get().(*binEncoder)
	e.reset()
	defer e.release()

	usesTable := false
	switch m.Kind {
	case KindGossipDigest:
		// A digest names its zones by depth, so it carries no string table.
		if g := m.GossipDigest; g != nil {
			e.body = appendString(e.body, g.FromZone)
			e.sections(g.Sections)
		}
	case KindGossipDelta:
		if g := m.GossipDelta; g != nil {
			usesTable = true
			e.body = binary.AppendUvarint(e.body, e.ref(g.FromZone))
			e.rows(g.Rows)
			e.body = binary.AppendUvarint(e.body, uint64(len(g.Want)))
			for i := range g.Want {
				e.body = binary.AppendUvarint(e.body, e.ref(g.Want[i].Zone))
				e.body = appendString(e.body, g.Want[i].Name)
			}
			// Stamps, then sections, each written only when there is
			// something to write after Want (the decoder reads each iff bytes
			// remain), so the common rows-and-wants delta pays for neither.
			if len(g.Stamps) > 0 || len(g.Sections) > 0 {
				e.body = binary.AppendUvarint(e.body, uint64(len(g.Stamps)))
				for i := range g.Stamps {
					z := &g.Stamps[i]
					e.body = binary.AppendUvarint(e.body, uint64(z.Depth))
					e.body = binary.LittleEndian.AppendUint64(e.body, z.Hash)
					e.body = appendTime(e.body, z.Newest)
					e.body = binary.AppendUvarint(e.body, uint64(len(z.Rows)))
					for _, r := range z.Rows {
						e.body = binary.AppendUvarint(e.body, uint64(r.Pos))
						e.body = binary.AppendUvarint(e.body, uint64(r.Lag))
					}
				}
			}
			if len(g.Sections) > 0 {
				e.sections(g.Sections)
			}
		}
	case KindMulticast:
		if mc := m.Multicast; mc != nil {
			e.body = appendMulticastHead(e.body, mc)
			e.envelope(&mc.Envelope)
		}
	case KindMulticastAck:
		if a := m.MulticastAck; a != nil {
			e.body = binary.AppendUvarint(e.body, a.Seq)
			e.body = appendString(e.body, a.Key)
			e.body = appendString(e.body, a.TargetZone)
		}
	case KindClockPing, KindClockPong:
		if c := m.ClockSync; c != nil {
			e.body = binary.AppendUvarint(e.body, c.Seq)
			e.body = binary.AppendVarint(e.body, c.T1)
			e.body = binary.AppendVarint(e.body, c.T2)
		}
	case KindStateRequest:
		if r := m.StateRequest; r != nil {
			e.body = appendTime(e.body, r.Since)
			e.body = binary.AppendVarint(e.body, int64(r.MaxItems))
			e.body = binary.AppendUvarint(e.body, uint64(len(r.Subjects)))
			for _, s := range r.Subjects {
				e.body = appendString(e.body, s)
			}
			// Like a delta's stamps, the summary section is appended only
			// when non-empty: a request without one is byte-identical to the
			// pre-summary format, and the decoder reads it iff bytes remain.
			if len(r.Have) > 0 {
				e.body = binary.LittleEndian.AppendUint64(e.body, r.Salt)
				e.body = binary.AppendUvarint(e.body, uint64(len(r.Have)))
				for _, h := range r.Have {
					e.body = binary.LittleEndian.AppendUint64(e.body, h)
				}
			}
		}
	case KindStateReply:
		if r := m.StateReply; r != nil {
			e.body = binary.AppendUvarint(e.body, uint64(len(r.Envelopes)))
			for i := range r.Envelopes {
				e.envelope(&r.Envelopes[i])
			}
			e.body = appendBool(e.body, r.Truncated)
		}
	default:
		// Unknown kind: emit no payload; Decode rejects the frame.
	}

	if e.err != nil {
		return nil, e.err
	}
	e.head = append(e.head, codecMagic, byte(m.Kind))
	e.head = appendString(e.head, from)
	if usesTable {
		e.head = binary.AppendUvarint(e.head, uint64(len(e.tblList)))
		for _, s := range e.tblList {
			e.head = appendString(e.head, s)
		}
	}
	out := make([]byte, prefix, prefix+len(e.head)+len(e.body))
	out = append(out, e.head...)
	out = append(out, e.body...)
	return out, nil
}

// appendMulticastHead appends what a Multicast carries before its
// envelope; multicastHeadSize is its length.
func appendMulticastHead(b []byte, mc *Multicast) []byte {
	b = appendString(b, mc.TargetZone)
	b = binary.AppendVarint(b, int64(mc.Hops))
	b = appendBool(b, mc.Deliver)
	b = binary.AppendUvarint(b, mc.AckSeq)
	return binary.AppendUvarint(b, mc.TraceID)
}

func multicastHeadSize(mc *Multicast) int {
	return sizeStr(mc.TargetZone) + varintLen(int64(mc.Hops)) + 1 + uvarintLen(mc.AckSeq) + uvarintLen(mc.TraceID)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func (e *binEncoder) rows(rows []RowUpdate) {
	e.body = binary.AppendUvarint(e.body, uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		e.body = binary.AppendUvarint(e.body, e.ref(r.Zone))
		e.body = appendString(e.body, r.Name)
		e.body = appendTime(e.body, r.Issued)
		e.body = appendString(e.body, r.Owner)
		e.body = appendString(e.body, r.Signer)
		e.body = appendByteSlice(e.body, r.Sig)
		e.attrs(r.Attrs)
	}
}

// sections writes a section list: per section its head (depth and whether
// names follow), content hash, newest stamp, and per row the lag behind it
// and, in a named section, the row's name and attrs hash.
func (e *binEncoder) sections(sections []ZoneSection) {
	b := binary.AppendUvarint(e.body, uint64(len(sections)))
	for i := range sections {
		s := &sections[i]
		named := len(s.Named) > 0
		if named && len(s.Named) != len(s.Lags) {
			e.err = fmt.Errorf("wire: encode: section names %d rows and stamps %d", len(s.Named), len(s.Lags))
			return
		}
		b = binary.AppendUvarint(b, sectionHead(s))
		b = binary.LittleEndian.AppendUint64(b, s.Hash)
		b = appendTime(b, s.Newest)
		b = binary.AppendUvarint(b, uint64(len(s.Lags)))
		for j, lag := range s.Lags {
			b = binary.AppendUvarint(b, uint64(lag))
			if named {
				b = appendString(b, s.Named[j].Name)
				b = binary.LittleEndian.AppendUint64(b, s.Named[j].Hash)
			}
		}
	}
	e.body = b
}

func (e *binEncoder) attrs(m value.Map) {
	e.body = binary.AppendUvarint(e.body, uint64(len(m)))
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	for _, k := range e.keys {
		e.body = binary.AppendUvarint(e.body, e.ref(k))
		e.body = appendWireValue(e.body, m[k])
	}
}

// envelope writes a sealed envelope's kept span as it is, and encodes any
// other envelope's fields.
func (e *binEncoder) envelope(env *ItemEnvelope) {
	if env.span != nil {
		e.body = append(e.body, env.span...)
		return
	}
	e.body = appendEnvelope(e.body, env)
}

// appendEnvelope appends the encoding of env's fields to b.
func appendEnvelope(b []byte, env *ItemEnvelope) []byte {
	b = appendString(b, env.Publisher)
	b = appendString(b, env.ItemID)
	b = binary.AppendVarint(b, int64(env.Revision))
	b = binary.AppendUvarint(b, uint64(len(env.Subjects)))
	for _, s := range env.Subjects {
		b = appendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(env.SubjectBits)))
	for _, bit := range env.SubjectBits {
		b = binary.AppendUvarint(b, uint64(bit))
	}
	b = appendString(b, env.ScopeZone)
	b = appendString(b, env.Predicate)
	b = binary.AppendVarint(b, int64(env.Urgency))
	b = appendTime(b, env.Published)
	b = appendByteSlice(b, env.Payload)
	b = appendString(b, env.Signer)
	return appendByteSlice(b, env.Sig)
}

// --- decoder ---

// binDecoder cursors over one frame with a sticky error: after the first
// failure every accessor returns a zero value, so decode call sites stay
// linear. All counts and lengths are bounds-checked against the remaining
// input before anything is allocated. A frame's decoder comes from
// binDecPool, so its string table keeps its capacity from frame to frame.
type binDecoder struct {
	data []byte
	pos  int
	err  error
	tbl  []string
}

var binDecPool = sync.Pool{New: func() any { return new(binDecoder) }}

// release returns d to binDecPool holding neither the frame nor an error.
// The table's entries are interned strings, so keeping them pins nothing;
// a table grown by an outsized frame is dropped.
func (d *binDecoder) release() {
	tbl := d.tbl[:0]
	if cap(tbl) > maxPooledTable {
		tbl = nil
	}
	*d = binDecoder{tbl: tbl}
	binDecPool.Put(d)
}

// maxPooledTable caps the string table a pooled decoder keeps.
const maxPooledTable = 1024

func (d *binDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *binDecoder) remaining() int { return len(d.data) - d.pos }

func (d *binDecoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.fail("truncated input")
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *binDecoder) bool() bool { return d.u8() != 0 }

func (d *binDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *binDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.pos += n
	return v
}

// count reads a uvarint bounded by the remaining input length, the
// natural ceiling for any element count (every element costs at least one
// byte), so a forged count cannot drive a huge allocation.
func (d *binDecoder) count(what string) int {
	c := d.uvarint()
	if d.err != nil {
		return 0
	}
	if c > uint64(d.remaining()) {
		d.fail("%s count %d exceeds input", what, c)
		return 0
	}
	return int(c)
}

func (d *binDecoder) str() string { return string(d.rawStr()) }

// rawStr returns the next string's bytes in place, a view of the input
// clipped to its own length.
func (d *binDecoder) rawStr() []byte {
	n := d.count("string length")
	if d.err != nil {
		return nil
	}
	b := d.data[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// view returns the next string as a view of the input, which must be a
// buffer nobody writes again: an envelope's own copy (see envelope).
func (d *binDecoder) view() string {
	b := d.rawStr()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// subSlice returns the next byte array as a view of the input, like view,
// and nil for an empty one.
func (d *binDecoder) subSlice() []byte {
	if b := d.rawStr(); len(b) > 0 {
		return b
	}
	return nil
}

func (d *binDecoder) time() time.Time {
	sec := d.varint()
	nsec := d.uvarint()
	if d.err != nil {
		return time.Time{}
	}
	if nsec >= uint64(time.Second) {
		d.fail("time nanoseconds %d out of range", nsec)
		return time.Time{}
	}
	if sec == zeroTimeUnixSec && nsec == 0 {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// table reads the interned string table, canonicalizing each entry
// through the process-wide intern table so decoded rows share one
// instance of each attribute name and zone path.
func (d *binDecoder) table() {
	n := d.count("string table")
	if d.err != nil {
		return
	}
	d.tbl = d.tbl[:0]
	for i := 0; i < n; i++ {
		if d.err != nil {
			return
		}
		// Interned straight from the frame: a table entry is a zone path
		// or attribute name seen on every earlier frame, and a hit must
		// not allocate the string only to drop it.
		d.tbl = append(d.tbl, value.InternBytes(d.rawStr()))
	}
}

func (d *binDecoder) ref() string {
	i := d.uvarint()
	if d.err != nil {
		return ""
	}
	if i >= uint64(len(d.tbl)) {
		d.fail("string table ref %d out of range (table has %d)", i, len(d.tbl))
		return ""
	}
	return d.tbl[i]
}

// rowList reads a row list, each row into a buffer of its own (row).
func (d *binDecoder) rowList() []RowUpdate {
	n := d.count("row")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]RowUpdate, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		out = append(out, RowUpdate{})
		if d.row(&out[i]); d.err != nil {
			return nil
		}
	}
	return out
}

// row decodes one gossiped row into a buffer of its own (DESIGN.md §8,
// "Row ownership"), as envelope does an envelope: it walks the row in the
// input to find its span and the unpacked size of its packed byte arrays,
// copies exactly that span into one buffer with room for those arrays
// after it, and decodes the fields from the copy. The signature and every
// string and byte-array value view the buffer; the row's name, owner and
// signer are interned, so what keeps an address never keeps the row.
func (d *binDecoder) row(r *RowUpdate) {
	start := d.pos
	unpacked := d.skipRow()
	if d.err != nil {
		return
	}
	span := d.pos - start
	buf := make([]byte, span+unpacked)
	copy(buf, d.data[start:d.pos])
	own := binDecoder{data: buf[:span:span], tbl: d.tbl}
	own.rowFields(r, buf[span:])
	d.err = own.err
}

// skipRow moves past one encoded row, checking it the way rowFields reads
// it, and returns the total unpacked size of its packed byte arrays.
func (d *binDecoder) skipRow() (unpacked int) {
	d.ref()    // zone
	d.rawStr() // name
	d.time()   // issued
	d.rawStr() // owner
	d.rawStr() // signer
	d.rawStr() // signature
	for n := d.count("attr"); n > 0 && d.err == nil; n-- {
		d.ref()
		if d.err != nil {
			return 0
		}
		if d.pos < len(d.data) && d.data[d.pos] == packedBytesTag {
			rawLen, _ := d.packedRuns()
			if unpacked += rawLen; unpacked > maxPackedLen {
				d.fail("packed bytes: row unpacks past %d bytes", maxPackedLen)
			}
			continue
		}
		size, err := value.BinaryLen(d.data[d.pos:])
		if err != nil {
			d.fail("attr value: %v", err)
			return 0
		}
		d.pos += size
	}
	return unpacked
}

// rowFields decodes a row from a decoder over its own copy; tail is the
// room after the copy that packed byte arrays unpack into.
func (d *binDecoder) rowFields(r *RowUpdate, tail []byte) {
	r.Zone = d.ref()
	r.Name = value.InternBytes(d.rawStr())
	r.Issued = d.time()
	r.Owner = value.InternBytes(d.rawStr())
	r.Signer = value.InternBytes(d.rawStr())
	r.Sig = d.subSlice()
	n := d.count("attr")
	if d.err != nil {
		return
	}
	r.Attrs = make(value.Map, min(n, 64))
	for i := 0; i < n && d.err == nil; i++ {
		k := d.ref()
		r.Attrs[k] = d.value(&tail)
	}
}

// value decodes one attribute value as a view of the decoder's input,
// unpacking a packed byte array into the front of *tail.
func (d *binDecoder) value(tail *[]byte) value.Value {
	if d.err != nil {
		return value.Value{}
	}
	if d.pos < len(d.data) && d.data[d.pos] == packedBytesTag {
		rawLen, runs := d.packedRuns()
		if d.err != nil {
			return value.Value{}
		}
		out := (*tail)[:rawLen:rawLen]
		*tail = (*tail)[rawLen:]
		unpackRuns(out, runs)
		return value.ViewBytes(out)
	}
	v, n, err := value.DecodeBinaryView(d.data[d.pos:])
	if err != nil {
		d.fail("attr value: %v", err)
		return value.Value{}
	}
	d.pos += n
	return v
}

// packedRuns moves past a zero-run-packed byte array and returns its
// unpacked length and its run pairs. It checks the run structure — total
// coverage must equal the claimed length and every run pair must make
// progress — so that unpackRuns cannot fail, and a malformed frame cannot
// claim more memory than one bounded buffer.
func (d *binDecoder) packedRuns() (rawLen int, runs []byte) {
	d.pos++ // tag
	rawLen64 := d.uvarint()
	if d.err != nil {
		return 0, nil
	}
	if rawLen64 > maxPackedLen {
		d.fail("packed bytes length %d exceeds cap", rawLen64)
		return 0, nil
	}
	rawLen = int(rawLen64)
	start := d.pos
	covered := 0
	for covered < rawLen {
		z := d.uvarint()
		l := d.uvarint()
		if d.err != nil {
			return 0, nil
		}
		if z == 0 && l == 0 {
			d.fail("packed bytes: zero-progress run")
			return 0, nil
		}
		if z > maxPackedLen || l > uint64(d.remaining()) {
			d.fail("packed bytes: run exceeds input")
			return 0, nil
		}
		d.pos += int(l)
		covered += int(z) + int(l)
		if covered > rawLen {
			d.fail("packed bytes: runs exceed claimed length %d", rawLen)
			return 0, nil
		}
	}
	return rawLen, d.data[start:d.pos]
}

// unpackRuns expands run pairs packedRuns has checked into out, which is
// exactly their unpacked length and zeroed.
func unpackRuns(out, runs []byte) {
	pos, p := 0, 0
	for pos < len(out) {
		z, n := binary.Uvarint(runs[p:])
		p += n
		l, n := binary.Uvarint(runs[p:])
		p += n
		pos += int(z)
		copy(out[pos:], runs[p:p+int(l)])
		p += int(l)
		pos += int(l)
	}
}

// lag reads one row's distance behind its section's newest stamp.
func (d *binDecoder) lag() time.Duration {
	v := d.uvarint()
	if v > math.MaxInt64 {
		d.fail("stamp lag %d out of range", v)
		return 0
	}
	return time.Duration(v)
}

// depth reads a zone's index in its sender's ancestor chain.
func (d *binDecoder) depth(v uint64) int {
	if v > math.MaxInt32 {
		d.fail("zone depth %d out of range", v)
		return 0
	}
	return int(v)
}

// sectionList reads a section list. A named section must list its rows in
// strictly ascending name order: positions in that order are what the
// answering stamps refer to, and the receiver walks it against its own
// sorted table. It must also have rows to name (ZoneSection).
func (d *binDecoder) sectionList() []ZoneSection {
	n := d.count("section")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]ZoneSection, 0, min(n, 64))
	for i := 0; i < n && d.err == nil; i++ {
		var s ZoneSection
		head := d.uvarint()
		named := head&1 != 0
		s.Depth = d.depth(head >> 1)
		s.Hash = d.u64()
		s.Newest = d.time()
		rows := d.count("section row")
		if named && rows == 0 && d.err == nil {
			d.fail("named section without rows")
		}
		if d.err != nil {
			return nil
		}
		if rows > 0 {
			s.Lags = make([]time.Duration, 0, min(rows, 1024))
			if named {
				s.Named = make([]RowSummary, 0, min(rows, 1024))
			}
		}
		for j := 0; j < rows && d.err == nil; j++ {
			s.Lags = append(s.Lags, d.lag())
			if named {
				r := RowSummary{Name: value.InternBytes(d.rawStr()), Hash: d.u64()}
				if j > 0 && r.Name <= s.Named[j-1].Name {
					d.fail("section names out of order at %q", r.Name)
				}
				s.Named = append(s.Named, r)
			}
		}
		out = append(out, s)
	}
	return out
}

func (d *binDecoder) zoneStampsList() []ZoneStamps {
	n := d.count("stamped zone")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]ZoneStamps, 0, min(n, 64))
	for i := 0; i < n && d.err == nil; i++ {
		z := ZoneStamps{Depth: d.depth(d.uvarint()), Hash: d.u64(), Newest: d.time()}
		rows := d.count("stamp")
		if d.err != nil {
			return nil
		}
		if rows > 0 {
			z.Rows = make([]RowStamp, 0, min(rows, 1024))
		}
		for j := 0; j < rows && d.err == nil; j++ {
			pos := d.uvarint()
			if pos > math.MaxUint32 {
				d.fail("stamp position %d out of range", pos)
			}
			z.Rows = append(z.Rows, RowStamp{Pos: uint32(pos), Lag: d.lag()})
		}
		out = append(out, z)
	}
	return out
}

// u64 reads one fixed-width little-endian 64-bit value.
func (d *binDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated 64-bit value")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v
}

// hashList reads a state request's summary hashes as sent: order and
// repeats are the responder's to tolerate (core.handleStateRequest), so a
// relayed frame keeps its bytes.
func (d *binDecoder) hashList() []uint64 {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(d.remaining())/8 {
		d.fail("summary hash count %d exceeds input", n)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u64()
	}
	return out
}

func (d *binDecoder) refList() []RowRef {
	n := d.count("row ref")
	if d.err != nil || n == 0 {
		return nil
	}
	c := n
	if c > 4096 {
		c = 4096
	}
	out := make([]RowRef, 0, c)
	for i := 0; i < n; i++ {
		if d.err != nil {
			return nil
		}
		out = append(out, RowRef{Zone: d.ref(), Name: value.InternBytes(d.rawStr())})
	}
	return out
}

// envelope decodes one ItemEnvelope, of a Multicast or of a StateReply,
// into a buffer of its own (DESIGN.md §8, "Envelope ownership"): it walks
// the envelope in the input to find its span, copies exactly that span,
// and decodes the fields from the copy, every string and byte array a view
// of it. The copy is kept as the envelope's span, the bytes every frame
// that relays it sends. The input — a pooled read buffer, a whole reply —
// is never kept, so no envelope pins another's bytes. The key is the one
// field built apart, in the key slab: item tables, ack tables and trace
// spans keep it after the envelope is gone. subjects and bits, when long
// enough, back the envelope's Subjects and SubjectBits.
func (d *binDecoder) envelope(env *ItemEnvelope, subjects []string, bits []uint32) {
	start := d.pos
	d.skipEnvelope()
	if d.err != nil {
		return
	}
	own := binDecoder{data: make([]byte, d.pos-start)}
	copy(own.data, d.data[start:d.pos])
	own.envelopeFields(env, subjects, bits)
	env.span = own.data
	d.err = own.err
}

// skipEnvelope moves past one encoded envelope, bounds-checking every
// length and count the way envelopeFields reads them.
func (d *binDecoder) skipEnvelope() {
	d.rawStr() // publisher
	d.rawStr() // item ID
	d.varint() // revision
	for n := d.count("subject"); n > 0 && d.err == nil; n-- {
		d.rawStr()
	}
	for n := d.count("subject bit"); n > 0 && d.err == nil; n-- {
		d.uvarint()
	}
	d.rawStr() // scope zone
	d.rawStr() // predicate
	d.varint() // urgency
	d.time()   // published
	d.rawStr() // payload
	d.rawStr() // signer
	d.rawStr() // signature
}

// envelopeFields decodes an envelope from a decoder over its own copy.
func (d *binDecoder) envelopeFields(env *ItemEnvelope, subjects []string, bits []uint32) {
	env.Publisher = d.view()
	env.ItemID = d.view()
	env.Revision = int(d.varint())
	if n := d.count("subject"); n > 0 {
		env.Subjects = backing(subjects, n)
		for i := range env.Subjects {
			env.Subjects[i] = d.view()
		}
	}
	if n := d.count("subject bit"); n > 0 {
		env.SubjectBits = backing(bits, n)
		for i := range env.SubjectBits {
			bit := d.uvarint()
			if bit > math.MaxUint32 {
				d.fail("subject bit %d out of range", bit)
				return
			}
			env.SubjectBits[i] = uint32(bit)
		}
	}
	env.ScopeZone = d.view()
	env.Predicate = d.view()
	env.Urgency = int(d.varint())
	env.Published = d.time()
	env.Payload = d.subSlice()
	env.Signer = d.view()
	env.Sig = d.subSlice()
	env.SealKey()
}

// backing returns buf's first n elements, capacity clipped so an append
// copies, or a fresh slice when buf is too short.
func backing[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n:n]
	}
	return make([]T, n)
}

// Room a received forward's block keeps for its envelope's subjects and
// Bloom positions: an item of one or two subjects needs no other slice.
const (
	inlineSubjects = 2
	inlineBits     = 4
)

// multicastBlock is a received forward's one allocation besides its
// envelope's span: the message, its Multicast and inline backing for the
// envelope's first subjects and bits. A node's item table keeps the
// envelope, and with it the block.
type multicastBlock struct {
	msg      Message
	mc       Multicast
	subjects [inlineSubjects]string
	bits     [inlineBits]uint32
}

// newMessage returns a message and its kind's payload as one allocation.
func newMessage[P any]() (*Message, *P) {
	blk := new(struct {
		msg Message
		p   P
	})
	return &blk.msg, &blk.p
}

func decodeBinary(data []byte) (*Message, error) {
	d := binDecPool.Get().(*binDecoder)
	defer d.release()
	d.data, d.pos = data, 1 // pos 0 is the magic byte
	kind := Kind(d.u8())
	// A peer's address heads every frame it sends: interned from the
	// frame, like zone paths, so a hit allocates nothing.
	from := value.InternBytes(d.rawStr())
	var m *Message
	switch kind {
	case KindGossipDigest:
		var g *GossipDigest
		m, g = newMessage[GossipDigest]()
		m.GossipDigest = g
		// Interned straight from the frame, as a table entry would be: a
		// zone path seen on every earlier digest must not allocate.
		g.FromZone = value.InternBytes(d.rawStr())
		g.Sections = d.sectionList()
	case KindGossipDelta:
		var g *GossipDelta
		m, g = newMessage[GossipDelta]()
		m.GossipDelta = g
		d.table()
		g.FromZone = d.ref()
		g.Rows = d.rowList()
		g.Want = d.refList()
		if d.err == nil && d.remaining() > 0 {
			g.Stamps = d.zoneStampsList()
		}
		if d.err == nil && d.remaining() > 0 {
			g.Sections = d.sectionList()
		}
	case KindMulticast:
		blk := new(multicastBlock)
		mc := &blk.mc
		m = &blk.msg
		m.Multicast = mc
		mc.TargetZone = value.InternBytes(d.rawStr())
		mc.Hops = int(d.varint())
		mc.Deliver = d.bool()
		mc.AckSeq = d.uvarint()
		mc.TraceID = d.uvarint()
		d.envelope(&mc.Envelope, blk.subjects[:], blk.bits[:])
	case KindMulticastAck:
		var a *MulticastAck
		m, a = newMessage[MulticastAck]()
		m.MulticastAck = a
		a.Seq = d.uvarint()
		a.Key = d.str()
		a.TargetZone = d.str()
	case KindClockPing, KindClockPong:
		var c *ClockSync
		m, c = newMessage[ClockSync]()
		m.ClockSync = c
		c.Seq = d.uvarint()
		c.T1 = d.varint()
		c.T2 = d.varint()
	case KindStateRequest:
		var r *StateRequest
		m, r = newMessage[StateRequest]()
		m.StateRequest = r
		r.Since = d.time()
		r.MaxItems = int(d.varint())
		n := d.count("subject")
		for i := 0; i < n && d.err == nil; i++ {
			r.Subjects = append(r.Subjects, d.str())
		}
		if d.err == nil && d.remaining() > 0 {
			r.Salt = d.u64()
			r.Have = d.hashList()
		}
	case KindStateReply:
		var r *StateReply
		m, r = newMessage[StateReply]()
		m.StateReply = r
		n := d.count("envelope")
		for i := 0; i < n && d.err == nil; i++ {
			var env ItemEnvelope
			d.envelope(&env, nil, nil)
			r.Envelopes = append(r.Envelopes, env)
		}
		r.Truncated = d.bool()
	default:
		return nil, fmt.Errorf("wire: decode: unknown message kind %d", kind)
	}
	m.Kind, m.From = kind, from
	if d.err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", kind, d.err)
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("wire: decode %s: %d trailing bytes", kind, len(data)-d.pos)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
