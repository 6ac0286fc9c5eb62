package bloom

import (
	"encoding/binary"
	"math/bits"
)

// Signature sets are the zone-subgrouping representation of predicate
// subscriptions (pubsub.ModePredicate): instead of one OR-of-everything
// Bloom filter per zone row, a row carries up to K subgroup filters, each
// the union of a cluster of similar member signatures. An intermediate
// zone forwards an item when ANY subgroup filter admits it — with
// multi-bit hashing that conjunction-within-one-filter test is strictly
// tighter than testing the union of all subgroups, which is what cuts
// false-positive forwards (Shafique et al., subscription subgrouping).
//
// The wire form is self-describing and aggregation-friendly:
//
//	uvarint K | uvarint n | n × (uvarint len, len entry bytes)
//
// Each entry is one filter in whichever of two encodings is smaller:
//
//	FilterRaw    | raw bitmap bytes
//	FilterSparse | uvarint rawLen | uvarint count | count × uvarint
//
// The sparse form lists set-bit positions (first absolute, then deltas),
// which is what a single leaf's signature almost always is — a few dozen
// set bits in a couple of thousand — so leaf rows gossip a fraction of
// the raw bitmap's bytes. Saturated union filters at ancestor zones stay
// raw.
//
// Merging two sets concatenates their filters and greedily re-clusters
// down to K by repeatedly OR-merging the pair whose union has the lowest
// popcount (ties resolve to the lowest indices), so aggregation is
// deterministic given a deterministic fold order. Bits are only ever
// added, which keeps compiled-signature soundness intact end to end.

// Filter entry encodings inside a signature set.
const (
	// FilterRaw tags a raw bitmap entry.
	FilterRaw = 0x00
	// FilterSparse tags a delta-encoded set-bit position list entry.
	FilterSparse = 0x01
)

// maxFilterBytes bounds a decoded filter's size (1<<20 bits); a sparse
// entry claiming more is malformed, not an allocation request.
const maxFilterBytes = 1 << 17

// EncodeSignatureSet packs K and the given filter byte strings, choosing
// the smaller of the raw and sparse encodings per filter. A k < 1 is
// stored as 1.
func EncodeSignatureSet(k int, filters [][]byte) []byte {
	if k < 1 {
		k = 1
	}
	entries := make([][]byte, len(filters))
	size := binary.MaxVarintLen64 * 2
	for i, f := range filters {
		entries[i] = encodeFilterEntry(f)
		size += binary.MaxVarintLen64 + len(entries[i])
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, uint64(k))
	out = binary.AppendUvarint(out, uint64(len(filters)))
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(len(e)))
		out = append(out, e...)
	}
	return out
}

// encodeFilterEntry picks the cheaper encoding for one filter.
func encodeFilterEntry(f []byte) []byte {
	pc := 0
	for _, c := range f {
		pc += bits.OnesCount8(c)
	}
	// Sparse wins whenever the position list is actually smaller than the
	// bitmap — each position costs at least one delta byte, so pc >= len
	// can never win and skips the trial encode. Probing a sparse entry
	// costs one expansion per distinct row payload (the forwarding path
	// caches expansions against the row's immutable bytes), so the choice
	// here is purely about gossip bytes.
	if pc < len(f) {
		sparse := make([]byte, 0, pc*5+2*binary.MaxVarintLen64+1)
		sparse = append(sparse, FilterSparse)
		sparse = binary.AppendUvarint(sparse, uint64(len(f)))
		sparse = binary.AppendUvarint(sparse, uint64(pc))
		prev := uint64(0)
		first := true
		for i, c := range f {
			for ; c != 0; c &= c - 1 {
				pos := uint64(i*8 + bits.TrailingZeros8(c))
				if first {
					sparse = binary.AppendUvarint(sparse, pos)
					first = false
				} else {
					sparse = binary.AppendUvarint(sparse, pos-prev)
				}
				prev = pos
			}
		}
		if len(sparse) < len(f)+1 {
			return sparse
		}
	}
	out := make([]byte, 0, len(f)+1)
	out = append(out, FilterRaw)
	return append(out, f...)
}

// decodeFilterEntry materializes one entry back into raw bitmap bytes.
// Raw entries alias blob; sparse entries allocate.
func decodeFilterEntry(blob []byte) ([]byte, bool) {
	if len(blob) == 0 {
		return nil, false
	}
	switch blob[0] {
	case FilterRaw:
		return blob[1:], true
	case FilterSparse:
		return decodeSparseFilter(blob[1:])
	}
	return nil, false
}

func decodeSparseFilter(enc []byte) ([]byte, bool) {
	rawLen, n := binary.Uvarint(enc)
	if n <= 0 || rawLen > maxFilterBytes {
		return nil, false
	}
	f := make([]byte, rawLen)
	if ExpandSparseFilter(f, enc) != SparseOK {
		return nil, false
	}
	return f, true
}

// SparseExpandResult reports how expanding a sparse entry went.
type SparseExpandResult int

// ExpandSparseFilter outcomes.
const (
	// SparseOK: dst now holds the filter's raw bitmap.
	SparseOK SparseExpandResult = iota
	// SparseWrongSize: the entry encodes a different raw length than
	// len(dst) — a filter from another geometry, not a malformed one.
	SparseWrongSize
	// SparseMalformed: the entry does not parse.
	SparseMalformed
)

// ExpandSparseFilter decodes a FilterSparse payload (the bytes after the
// tag) into dst, which the caller provides zeroed. This is the
// allocation-free path the forwarding test uses on leaf rows.
func ExpandSparseFilter(dst, enc []byte) SparseExpandResult {
	rawLen, n := binary.Uvarint(enc)
	if n <= 0 || rawLen > maxFilterBytes {
		return SparseMalformed
	}
	if rawLen != uint64(len(dst)) {
		return SparseWrongSize
	}
	enc = enc[n:]
	count, n := binary.Uvarint(enc)
	if n <= 0 || count > rawLen*8 {
		return SparseMalformed
	}
	enc = enc[n:]
	pos := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Uvarint(enc)
		if n <= 0 {
			return SparseMalformed
		}
		enc = enc[n:]
		if i == 0 {
			pos = d
		} else {
			pos += d
		}
		if pos >= rawLen*8 {
			return SparseMalformed
		}
		dst[pos/8] |= 1 << (pos % 8)
	}
	return SparseOK
}

// DecodeSignatureSet unpacks an encoded set into raw bitmap filters. Raw
// entries alias enc (callers must not mutate them); sparse entries are
// materialized. A malformed encoding returns ok=false (gossip can deliver
// scrambled rows; decoding must never panic).
func DecodeSignatureSet(enc []byte) (k int, filters [][]byte, ok bool) {
	kk, cnt, enc, ok := signatureSetHeader(enc)
	if !ok || kk < 1 || kk > 1<<16 {
		return 0, nil, false
	}
	filters = make([][]byte, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		l, n := binary.Uvarint(enc)
		if n <= 0 || uint64(len(enc)-n) < l {
			return 0, nil, false
		}
		f, fok := decodeFilterEntry(enc[n : n+int(l)])
		if !fok {
			return 0, nil, false
		}
		filters = append(filters, f)
		enc = enc[n+int(l):]
	}
	return int(kk), filters, true
}

// SignatureSetLen returns the number of subgroup filters in an encoded
// set, 0 when malformed.
func SignatureSetLen(enc []byte) int {
	_, cnt, _, ok := signatureSetHeader(enc)
	if !ok {
		return 0
	}
	return int(cnt)
}

// signatureSetHeader reads an encoded set's K and filter count and returns
// the entries after them. Every entry takes at least two bytes (a length
// varint and a non-empty tagged blob), so a count the rest cannot hold is
// malformed, and is rejected before anything is sized by it.
func signatureSetHeader(enc []byte) (k, cnt uint64, rest []byte, ok bool) {
	k, n := binary.Uvarint(enc)
	if n <= 0 {
		return 0, 0, nil, false
	}
	enc = enc[n:]
	cnt, n = binary.Uvarint(enc)
	if n <= 0 || cnt > 1<<16 || cnt > uint64(len(enc)-n)/2 {
		return 0, 0, nil, false
	}
	return k, cnt, enc[n:], true
}

// IterSignatureSet walks an encoded set's filters as raw bitmaps, calling
// fn for each until fn returns true (sparse entries are materialized per
// call). It reports whether any call returned true; a malformed encoding
// reports false.
func IterSignatureSet(enc []byte, fn func(filter []byte) bool) bool {
	_, cnt, enc, ok := signatureSetHeader(enc)
	if !ok {
		return false
	}
	for i := uint64(0); i < cnt; i++ {
		l, n := binary.Uvarint(enc)
		if n <= 0 || uint64(len(enc)-n) < l {
			return false
		}
		f, fok := decodeFilterEntry(enc[n : n+int(l)])
		if !fok {
			return false
		}
		if fn(f) {
			return true
		}
		enc = enc[n+int(l):]
	}
	return false
}

// MergeSignatureSets combines two encoded sets: K is the larger of the
// two, the filters are concatenated and greedily clustered back down to
// K. A malformed side is treated as empty, so one scrambled row cannot
// poison a zone's aggregate. Deterministic.
func MergeSignatureSets(a, b []byte) []byte {
	ka, fa, oka := DecodeSignatureSet(a)
	kb, fb, okb := DecodeSignatureSet(b)
	switch {
	case !oka && !okb:
		return EncodeSignatureSet(1, nil)
	case !oka:
		return append([]byte(nil), b...)
	case !okb:
		return append([]byte(nil), a...)
	}
	k := ka
	if kb > k {
		k = kb
	}
	merged := make([][]byte, 0, len(fa)+len(fb))
	for _, f := range fa {
		merged = append(merged, append([]byte(nil), f...))
	}
	for _, f := range fb {
		merged = append(merged, append([]byte(nil), f...))
	}
	return EncodeSignatureSet(k, clusterFilters(merged, k))
}

// clusterFilters greedily reduces filters by repeatedly OR-merging the
// pair whose union has the smallest popcount — the two most-similar (or
// smallest) filters — breaking ties toward the lowest pair of indices.
// Merging is mandatory above the K budget and opportunistic below it:
// while the best union stays under saturationBound, two subgroups fold
// into one at (almost) no precision cost, so a zone of like-minded
// members collapses toward a single filter and its row costs no more
// gossip bytes than the plain Bloom union would. Only genuinely diverse
// membership spends the full K filters. Filters are mutated in place
// (callers pass owned copies). Deterministic: no map iteration, no
// randomness.
func clusterFilters(filters [][]byte, k int) [][]byte {
	if k < 1 {
		k = 1
	}
	for len(filters) > 1 {
		bi, bj, best := 0, 1, -1
		for i := 0; i < len(filters); i++ {
			for j := i + 1; j < len(filters); j++ {
				pc := unionPopCount(filters[i], filters[j])
				if best < 0 || pc < best {
					bi, bj, best = i, j, pc
				}
			}
		}
		if len(filters) <= k && best > saturationBound(filters[bi], filters[bj]) {
			break
		}
		filters[bi] = orInto(filters[bi], filters[bj])
		filters = append(filters[:bj], filters[bj+1:]...)
	}
	return filters
}

// saturationBound is the union popcount up to which two subgroup filters
// merge even under the K budget: a filter filling at most 2/5 of its bit
// space keeps the per-probe false-positive rate below (2/5)^hashes, so
// the merge trades almost no precision for one fewer filter on every
// gossip of the row.
func saturationBound(a, b []byte) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	return n * 8 * 2 / 5
}

// unionPopCount counts set bits in a|b without allocating.
func unionPopCount(a, b []byte) int {
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	n := 0
	for i, c := range long {
		if i < len(short) {
			c |= short[i]
		}
		n += bits.OnesCount8(c)
	}
	return n
}

// orInto ORs src into dst, growing dst when src is longer, and returns
// the result.
func orInto(dst, src []byte) []byte {
	if len(src) > len(dst) {
		grown := make([]byte, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, c := range src {
		dst[i] |= c
	}
	return dst
}
