package wire

// Slab allocation for values that are written once and then only read.
//
// A million-node simulation holds millions of SharedRow cached encodings
// — one small []byte per distinct row content — and every gossip round
// builds a digest and a reply per exchange. Allocated individually they
// are millions of separate GC objects: every cycle scans every one, and
// the mark phase cost grows with their count. A Slab packs them into
// large shared arrays instead, so the collector sees a few large objects
// rather than many small ones.
//
// The discipline mirrors the copy-on-write row rules (row.go): a region
// is handed out once, zeroed, and written only by the caller it was handed
// to, before the value it backs escapes; afterwards it is immutable for as
// long as anything references it. Slabs are append-only: no region is ever
// handed out twice, so nothing is reused and nothing is freed by hand. A
// slab's lifetime ends with the last value pointing into it, and the
// garbage collector then frees the whole slab at once. SealEpoch detaches
// the slab being filled, so values made after it never share a slab with
// values made before (a simulation's row arena is sealed between table
// generations, so short-lived rows do not pin a slab of long-lived ones).
//
// A Slab never hands out aliased regions, so the race detector sees each
// element written once; concurrent callers (parallel digest and encode
// workers) serialize on one short critical section.

import (
	"slices"
	"sync"
	"unsafe"
)

// slabBytes is the default slab granule: the largest Go size class, so a
// slab is one small-object allocation with no rounding waste beyond its
// last partial element.
const slabBytes = 32 << 10

// arenaSlabSize is the row arena's slab granule. Big enough that slab
// count stays in the thousands at 10^6 rows, small enough that a
// mostly-dead epoch pins little memory.
const arenaSlabSize = 1 << 20

// arenaMaxCopy bounds the row arena's payloads worth packing: anything
// larger than a quarter slab gets its own allocation (it is its own GC
// object either way at that size, and it would fragment slabs). Every
// slab applies the same quarter-slab rule.
const arenaMaxCopy = arenaSlabSize / 4

// Slab hands out fresh regions of shared arrays of T. The zero value is
// ready to use and fills slabs of 32 KB.
type Slab[T any] struct {
	mu    sync.Mutex
	bytes int // slab granule in bytes; 0 means slabBytes
	cur   []T
	stats ArenaStats
}

// Arena packs small immutable byte payloads into shared slabs: the
// byte-sized Slab that SharedRow encodings live in.
type Arena = Slab[byte]

// ArenaStats counts a slab's lifetime activity.
type ArenaStats struct {
	Slabs  int64  // slabs ever started
	Bytes  int64  // bytes handed out
	Copies int64  // regions handed out
	Epochs uint64 // times SealEpoch was called
}

// Take returns a fresh, zeroed region of n elements that no other caller
// ever sees. Its capacity is clipped to n, so an append to it copies
// rather than growing into a neighbour's region. Take(0) returns nil.
func (s *Slab[T]) Take(n int) []T {
	if n <= 0 {
		return nil
	}
	size := int(unsafe.Sizeof(*new(T)))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Bytes += int64(n * size)
	s.stats.Copies++
	granule := s.bytes
	if granule == 0 {
		granule = slabBytes
	}
	per := max(granule/max(size, 1), 1)
	if n > per/4 {
		return make([]T, n)
	}
	if len(s.cur)+n > cap(s.cur) {
		// Grow rounds the capacity up to the allocation's size class,
		// so the slab uses every byte the allocator hands it.
		s.cur = slices.Grow([]T(nil), per)
		s.stats.Slabs++
	}
	off := len(s.cur)
	s.cur = s.cur[:off+n]
	return s.cur[off : off+n : off+n]
}

// Copy returns a copy of src in a fresh region (see Take). Like every
// shared row encoding, the copy is read-only once it escapes.
func (s *Slab[T]) Copy(src []T) []T {
	out := s.Take(len(src))
	copy(out, src)
	return out
}

// SealEpoch detaches the slab from its current array: later regions come
// from a fresh one, and the sealed array is freed by the collector as
// soon as the last value pointing into it is dropped.
func (s *Slab[T]) SealEpoch() {
	s.mu.Lock()
	s.cur = nil
	s.stats.Epochs++
	s.mu.Unlock()
}

// Stats returns the slab's lifetime counters.
func (s *Slab[T]) Stats() ArenaStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// rowArena is the process arena backing SharedRow cached encodings.
var rowArena = Arena{bytes: arenaSlabSize}

// RowArena returns the arena that SharedRow encodings are packed into.
// Simulations seal it between table generations (core.Cluster does this
// every few gossip rounds); live nodes may ignore it entirely.
func RowArena() *Arena { return &rowArena }
