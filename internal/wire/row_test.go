package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"newswire/internal/value"
)

// liveRow is leaf row i as a live node gossips it: its address, load and
// member count, a mostly-zero 128-byte subscription filter (packed on the
// wire), its zone's representative list, health counters and the health
// digest's worst-node string, signed.
func liveRow(i int) RowUpdate {
	owner := fmt.Sprintf("127.0.1.%d:17400", i+1)
	subs := make([]byte, 128)
	subs[3], subs[77], subs[120] = 0x10, 0x02, 0x81
	return RowUpdate{
		Zone:   "/r0/z1",
		Name:   fmt.Sprintf("n%02d", i),
		Issued: time.Unix(1017619200, int64(i)).UTC(),
		Owner:  owner,
		Signer: fmt.Sprintf("n%02d", i),
		Sig:    bytes.Repeat([]byte{byte(i + 1)}, 64),
		Attrs: value.Map{
			"addr":                  value.String(owner),
			"load":                  value.Int(3),
			"nmembers":              value.Int(1),
			"subs":                  value.Bytes(subs),
			"reps":                  value.Strings([]string{owner, "127.0.1.9:17400"}),
			"sys$health$s$nodes":    value.Int(1),
			"sys$health$s$retries":  value.Int(int64(i)),
			"sys$health$x$qhiwat":   value.Int(12),
			"sys$health$x$worst":    value.String(fmt.Sprintf("%d|/r0/z1/n%02d", i, i)),
			"sys$health$m$refresh":  value.Time(time.Unix(1017619200, 0)),
			"sys$health$k$blob":     value.Bytes([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}),
			"sys$health$s$cacheput": value.Int(400),
		},
	}
}

func liveDelta(rows int) *Message {
	d := &GossipDelta{FromZone: "/r0/z1"}
	for i := 0; i < rows; i++ {
		d.Rows = append(d.Rows, liveRow(i))
	}
	return &Message{Kind: KindGossipDelta, From: "127.0.1.1:17400", GossipDelta: d}
}

var mapSink value.Map

// TestGossipDeltaDecodeAllocationBudget holds a delta of K live rows to one
// block for the message and its delta, the row list, and per row its
// buffer, its attribute map and one slice per string-list value. Names,
// owners, signers, zone paths and attribute names are interned, the
// decoder's string table is pooled, and every other string, byte array and
// signature views the row's buffer. The map's own cost differs between Go
// releases, so it is measured here rather than written down.
func TestGossipDeltaDecodeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and sync.Pool drops Puts")
	}
	row := liveRow(0)
	keys := row.Attrs.Keys()
	mapCost := testing.AllocsPerRun(100, func() {
		m := make(value.Map, len(keys))
		for _, k := range keys {
			m[k] = value.Value{}
		}
		mapSink = m
	})
	const lists = 1 // reps
	for _, k := range []int{1, 4, 16} {
		data, err := Encode(liveDelta(k))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err != nil { // interns the names
			t.Fatal(err)
		}
		budget := 2 + float64(k)*(1+mapCost+lists)
		if n := testing.AllocsPerRun(100, func() { _, _ = Decode(data) }); n > budget {
			t.Errorf("decoding a %d-row delta allocates %v objects, budget %v (map %v)", k, n, budget, mapCost)
		}
	}
}

// rowSpan is the buffer a decoded row views: its encoding, which the
// signature locates, then the unpacked bytes of its packed arrays. It
// relies on the row's zone being the frame's first table entry and its
// attribute names among the next 127, so each reference is one byte.
func rowSpan(t *testing.T, r *RowUpdate) (lo, hi uintptr) {
	t.Helper()
	if len(r.Sig) == 0 {
		t.Fatalf("row %s has no signature to find its buffer by", r.Name)
	}
	sigAt := 1 + sizeStr(r.Name) + sizeTime(r.Issued) + sizeStr(r.Owner) + sizeStr(r.Signer) + uvarintLen(uint64(len(r.Sig)))
	size := sigAt + len(r.Sig) + attrsWireSize(r.Attrs)
	for _, v := range r.Attrs {
		if raw, ok := v.RawBytes(); ok && packedBytesSize(raw) < 1+sizeBytes(raw) {
			size += len(raw)
		}
	}
	lo = uintptr(unsafe.Pointer(&r.Sig[0])) - uintptr(sigAt)
	return lo, lo + uintptr(size)
}

func overlaps(lo, hi, olo, ohi uintptr) bool { return lo < ohi && olo < hi }

// TestDecodedRowOwnsItsBytes decodes a delta of three rows from a buffer
// and overwrites the buffer: every field and value is unchanged. Each row's
// signature, strings, byte arrays and list elements lie inside a buffer of
// the row's own — not the frame, and not a sibling's — with the byte
// slices clipped to their length; name, owner and signer lie in none.
func TestDecodedRowOwnsItsBytes(t *testing.T) {
	frame, err := Encode(liveDelta(3))
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(frame)
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if again, err := Encode(got); err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("rows changed with the input (re-encode err %v):\n got %x\nwant %x", err, again, frame)
	}
	rows := got.GossipDelta.Rows
	in := uintptr(unsafe.Pointer(&buf[0]))
	type span struct{ lo, hi uintptr }
	spans := make([]span, len(rows))
	for i := range rows {
		r := &rows[i]
		lo, hi := rowSpan(t, r)
		spans[i] = span{lo, hi}
		if overlaps(lo, hi, in, in+uintptr(len(buf))) {
			t.Errorf("row %s views the input buffer", r.Name)
		}
		for j := 0; j < i; j++ {
			if overlaps(lo, hi, spans[j].lo, spans[j].hi) {
				t.Errorf("rows %s and %s share a buffer", rows[j].Name, r.Name)
			}
		}
		inside := func(field string, p uintptr, n int) {
			if n > 0 && (p < lo || p+uintptr(n) > hi) {
				t.Errorf("row %s: %s [%#x, +%d) outside its span [%#x, %#x)", r.Name, field, p, n, lo, hi)
			}
		}
		clipped := func(field string, b []byte) {
			if cap(b) != len(b) {
				t.Errorf("row %s: %s has capacity %d past its %d bytes", r.Name, field, cap(b), len(b))
			}
			if len(b) > 0 {
				inside(field, uintptr(unsafe.Pointer(&b[0])), cap(b))
			}
		}
		clipped("Sig", r.Sig)
		for k, v := range r.Attrs {
			if s, ok := v.AsString(); ok {
				inside(k, addr(s), len(s))
			}
			if b, ok := v.RawBytes(); ok {
				clipped(k, b)
			}
			if ss, ok := v.RawStrings(); ok {
				for e, s := range ss {
					inside(fmt.Sprintf("%s[%d]", k, e), addr(s), len(s))
				}
			}
		}
	}
	for i := range rows {
		for field, s := range map[string]string{"Name": rows[i].Name, "Owner": rows[i].Owner, "Signer": rows[i].Signer} {
			for _, sp := range spans {
				if overlaps(addr(s), addr(s)+uintptr(len(s)), sp.lo, sp.hi) {
					t.Errorf("row %d: %s %q views a row buffer; what keeps it would keep the row", i, field, s)
				}
			}
		}
	}
}

// rowFrame is a one-row delta built by hand: table {"/z", "v"}, the row
// /z/a with no owner, signer or signature and one attribute "v" whose
// encoded value is val.
func rowFrame(val []byte) []byte {
	b := []byte{codecMagic, byte(KindGossipDelta), 2, 'n', '1', 2, 2, '/', 'z', 1, 'v', 0}
	b = append(b, 1, 0, 1, 'a') // one row: zone ref 0, name "a"
	b = appendTime(b, time.Unix(1000, 0))
	b = append(b, 0, 0, 0) // owner, signer, signature
	b = append(b, 1, 1)    // one attribute: ref 1
	b = append(b, val...)
	return append(b, 0) // no wants
}

// hostileRowFrames are gossip rows no encoder writes and the decoder must
// refuse before it copies a row: a packed value whose runs overrun the
// row, a string list whose count exceeds the input, and a delta whose
// second row is cut short.
func hostileRowFrames(t interface{ Fatal(...any) }) []namedFrame {
	packed := []byte{packedBytesTag, 40, 2, 30} // 2 zeros, then 30 literal bytes that are not there
	packed = append(packed, bytes.Repeat([]byte{7}, 8)...)
	list := []byte{byte(value.KindStrings)}
	list = binary.AppendUvarint(list, 1<<20)
	list = append(list, 1, 'x')
	two := liveDelta(2)
	whole, err := Encode(two)
	if err != nil {
		t.Fatal(err)
	}
	return []namedFrame{
		{"packed value overruns its row", rowFrame(packed)},
		{"string list count exceeds the input", rowFrame(list)},
		{"second row truncated", whole[:len(whole)-40]},
	}
}

// TestRowCodecRejectsHostileRows: each hostile row frame is refused, and
// the hand-built frame they start from decodes when its value is sound.
func TestRowCodecRejectsHostileRows(t *testing.T) {
	sound := []byte{packedBytesTag, 40, 2, 30} // 2 zeros, 30 literal bytes 2…31, 8 zeros
	for b := byte(2); b < 32; b++ {
		sound = append(sound, b)
	}
	m, err := Decode(rowFrame(append(sound, 8, 0)))
	if err != nil {
		t.Fatalf("sound hand-built row: %v", err)
	}
	if b, _ := m.GossipDelta.Rows[0].Attrs["v"].RawBytes(); len(b) != 40 || b[2] != 2 || b[31] != 31 || b[39] != 0 {
		t.Errorf("packed value unpacked as %v", b)
	}
	for _, frame := range hostileRowFrames(t) {
		if _, err := Decode(frame.data); err == nil {
			t.Errorf("%s: decoded", frame.name)
		}
	}
}
