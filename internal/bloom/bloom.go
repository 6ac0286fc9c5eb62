// Package bloom implements the Bloom filters NewsWire uses to aggregate
// subscription sets up the Astrolabe zone hierarchy (paper §6).
//
// A leaf node hashes each of its subscriptions into the filter; parent zones
// aggregate child filters with a bitwise OR (the paper's "simple binary-or
// operation on the child arrays"). A publisher hashes its publication the
// same way and, at every forwarding node, tests the child zone's aggregated
// filter; the item is forwarded only to child zones whose filters match.
// False positives cause harmless extra forwarding that is discarded by the
// exact-match test at the leaves.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Filter is a fixed-size Bloom filter. The zero Filter is unusable;
// construct one with New or FromBytes.
type Filter struct {
	bits   []byte
	nbits  uint32
	hashes int
}

// DefaultBits is the filter size the paper suggests ("a large single bit
// array in the order of a thousand bits or more").
const DefaultBits = 1024

// DefaultHashes is the default number of hash functions. The paper's early
// prototype hashes "a subscription ... to a single bit in the array"; k=1
// preserves OR-aggregation semantics with minimal density growth, but callers
// can pick a larger k for lower single-filter false-positive rates.
const DefaultHashes = 1

// New returns an empty filter with nbits bits (rounded up to a whole byte)
// and k hash functions. It panics only on programmer error (nbits or k < 1),
// matching make's behaviour for invalid sizes.
func New(nbits int, k int) *Filter {
	if nbits < 1 {
		panic(fmt.Sprintf("bloom: invalid size %d", nbits))
	}
	if k < 1 {
		panic(fmt.Sprintf("bloom: invalid hash count %d", k))
	}
	nbytes := (nbits + 7) / 8
	return &Filter{
		bits:   make([]byte, nbytes),
		nbits:  uint32(nbits),
		hashes: k,
	}
}

// FromBytes reconstructs a filter from a previous Bytes() snapshot. The
// snapshot must have come from a filter with the same geometry (nbits, k);
// geometry is not stored in the snapshot because the whole system shares one
// configured geometry (it is part of the signed aggregation program).
func FromBytes(snapshot []byte, nbits, k int) (*Filter, error) {
	f := New(nbits, k)
	if len(snapshot) != len(f.bits) {
		return nil, fmt.Errorf("bloom: snapshot is %d bytes, want %d for %d bits",
			len(snapshot), len(f.bits), nbits)
	}
	copy(f.bits, snapshot)
	return f, nil
}

// Bits returns the number of bits in the filter.
func (f *Filter) Bits() int { return int(f.nbits) }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() int { return f.hashes }

// FNV-1a's 64-bit offset basis and prime (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// AppendPositions appends to dst the k bit positions, in a filter of nbits
// bits, of the key prefix+key, and returns the extended slice. The key is
// hashed in its two parts, so a caller with a namespaced key never builds
// it, and nothing is allocated while dst has room. It is the one hash:
// positions are derived with Kirsch–Mitzenmacher double hashing over a
// 64-bit FNV-1a digest, so they are stable across processes and
// architectures — a requirement, since publishers and subscribers hash
// independently.
func AppendPositions(dst []uint32, nbits, k int, prefix, key string) []uint32 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(prefix); i++ {
		h = (h ^ uint64(prefix[i])) * fnvPrime64
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	digest := mix64(h)
	h1 := uint32(digest)
	h2 := uint32(digest >> 32)
	// Ensure h2 is odd so the probe sequence cycles through all positions.
	h2 |= 1
	for i := 0; i < k; i++ {
		dst = append(dst, (h1+uint32(i)*h2)%uint32(nbits))
	}
	return dst
}

// mix64 is the murmur3 avalanche finalizer. FNV-1a is multiplicative and
// keeps visible linear structure over near-identical keys (sequential
// subject names collide far above the birthday bound after the modulo);
// the finalizer destroys that structure while staying deterministic
// across processes.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts key into the filter.
func (f *Filter) Add(key string) {
	var buf [8]uint32
	for _, p := range AppendPositions(buf[:0], int(f.nbits), f.hashes, "", key) {
		f.bits[p/8] |= 1 << (p % 8)
	}
}

// Test reports whether key is possibly in the filter. False positives are
// possible; false negatives are not.
func (f *Filter) Test(key string) bool {
	var buf [8]uint32
	for _, p := range AppendPositions(buf[:0], int(f.nbits), f.hashes, "", key) {
		if f.bits[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

// TestPositions reports whether all the given bit positions are set. A
// publisher ships the positions of its publication key with each item so
// forwarders can test aggregated filters without re-hashing (paper §6: "an
// attribute is added to the data representing the bit position in the
// subscription array this publication corresponds to").
func (f *Filter) TestPositions(positions []uint32) bool {
	for _, p := range positions {
		if p >= f.nbits {
			return false
		}
		if f.bits[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

// SetPosition sets one bit directly. Used when aggregating pre-hashed
// subscription announcements.
func (f *Filter) SetPosition(p uint32) {
	if p < f.nbits {
		f.bits[p/8] |= 1 << (p % 8)
	}
}

// Merge ORs other into f. The paper aggregates child-zone filters into the
// parent zone "through a simple binary-or operation on the child arrays".
func (f *Filter) Merge(other *Filter) error {
	if other.nbits != f.nbits {
		return fmt.Errorf("bloom: merge size mismatch: %d vs %d bits", f.nbits, other.nbits)
	}
	for i, b := range other.bits {
		f.bits[i] |= b
	}
	return nil
}

// MergeBytes ORs a raw snapshot (as gossiped in an Astrolabe bytes
// attribute) into f.
func (f *Filter) MergeBytes(snapshot []byte) error {
	if len(snapshot) != len(f.bits) {
		return fmt.Errorf("bloom: merge snapshot is %d bytes, want %d", len(snapshot), len(f.bits))
	}
	for i, b := range snapshot {
		f.bits[i] |= b
	}
	return nil
}

// Bytes returns a copy of the filter's bit array, suitable for storing in
// an Astrolabe bytes attribute.
func (f *Filter) Bytes() []byte {
	cp := make([]byte, len(f.bits))
	copy(cp, f.bits)
	return cp
}

// Clone returns an independent copy of the filter.
func (f *Filter) Clone() *Filter {
	cp := New(int(f.nbits), f.hashes)
	copy(cp.bits, f.bits)
	return cp
}

// Clear resets every bit.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}

// PopCount returns the number of set bits.
func (f *Filter) PopCount() int {
	n := 0
	for _, b := range f.bits {
		for b != 0 {
			n += int(b & 1)
			b >>= 1
		}
	}
	return n
}

// Density returns the fraction of set bits in [0, 1].
func (f *Filter) Density() float64 {
	return float64(f.PopCount()) / float64(f.nbits)
}

// FalsePositiveRate estimates the probability that a random absent key
// tests positive, given the filter's current density: density^k.
func (f *Filter) FalsePositiveRate() float64 {
	return math.Pow(f.Density(), float64(f.hashes))
}

// ExpectedFalsePositiveRate predicts the false-positive rate of a filter
// with m bits and k hashes after n insertions: (1 - e^{-kn/m})^k. Used by
// experiment E3 to compare measured against theoretical rates.
func ExpectedFalsePositiveRate(m, k, n int) float64 {
	if m <= 0 || k <= 0 || n < 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// PositionsFor computes the bit positions for key under the given geometry
// without a filter (AppendPositions into a fresh slice).
func PositionsFor(key string, nbits, k int) []uint32 {
	return AppendPositions(make([]uint32, 0, k), nbits, k, "", key)
}

// EncodePositions packs bit positions into a compact byte slice for the
// item header.
func EncodePositions(positions []uint32) []byte {
	out := binary.AppendUvarint(nil, uint64(len(positions)))
	for _, p := range positions {
		out = binary.AppendUvarint(out, uint64(p))
	}
	return out
}

// DecodePositions unpacks positions encoded with EncodePositions.
func DecodePositions(src []byte) ([]uint32, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("bloom: truncated position count")
	}
	if count > uint64(len(src)) {
		return nil, fmt.Errorf("bloom: position count %d exceeds input", count)
	}
	pos := n
	out := make([]uint32, 0, count)
	for i := uint64(0); i < count; i++ {
		p, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("bloom: truncated position %d", i)
		}
		if p > math.MaxUint32 {
			return nil, fmt.Errorf("bloom: position %d overflows uint32", p)
		}
		out = append(out, uint32(p))
		pos += n
	}
	return out, nil
}
