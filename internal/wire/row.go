package wire

import (
	"sync"
	"sync/atomic"
	"time"

	"newswire/internal/value"
)

// SharedRow is the immutable content of one MIB row, shared by reference.
// An agent that merges a gossiped row installs a pointer to the sender's
// SharedRow instead of deep-copying the attributes, so an identical foreign
// row replicated across a hundred thousand agents costs one allocation, not
// one per replica.
//
// The row's issue time is deliberately not part of it: freshness is the
// one thing about a row that changes every gossip round and differs
// between replicas, so each replica keeps its own stamp beside the shared
// pointer (astrolabe's table entry) and a heartbeat moves that stamp
// without building a row. A signed row's signature covers the issue time
// it was signed at, so its stamp never moves apart from its content.
//
// The invariant that makes sharing safe: rows are immutable once shared.
// Nobody mutates a SharedRow's fields after it becomes reachable by a
// second goroutine; writers build a fresh SharedRow (cloning the Attrs
// map if they change it) and swap the pointer. The derived caches below
// are the only mutable state, and they are idempotent: every computation
// yields the same bytes, so racing initializers are harmless.
type SharedRow struct {
	// Name identifies the row within its table: a leaf node name or a
	// child zone name. (The zone is the table key, not row state.)
	Name string
	// Attrs is the row's attribute map. Read-only once the row is built.
	Attrs value.Map
	// Owner is the address of the issuing agent or aggregating
	// representative.
	Owner string
	// Signer and Sig authenticate the row (empty when signing is off).
	Signer string
	Sig    []byte

	// cache holds the lazily computed derived values: the canonical
	// attribute encoding (tie-breaks, aggregation input order), its
	// FNV-64a hash (gossip digests), and the attributes' wire-codec size
	// (byte accounting). atomic.Pointer because the parallel simulation
	// executor digests the same shared row from several goroutines; a
	// losing CAS just recomputes identical bytes.
	cache atomic.Pointer[rowCache]
}

type rowCache struct {
	enc       []byte
	hash      uint64
	wireAttrs int32
}

// encScratchPool recycles the staging buffers ensure encodes into before
// packing the result into the row arena (slab.go). Without it every first
// digest of a row would allocate a transient exact-size buffer on top of
// the slab copy.
var encScratchPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// ensure returns the row's cache, computing it on first use. The
// canonical encoding is packed into the shared row arena: rows are the
// dominant live population of a large simulation, and slab-backing their
// encodings keeps the GC scanning slabs, not rows.
func (r *SharedRow) ensure() *rowCache {
	if c := r.cache.Load(); c != nil {
		return c
	}
	scratch := encScratchPool.Get().(*[]byte)
	tmp := r.Attrs.AppendBinary((*scratch)[:0])
	c := &rowCache{
		enc:       rowArena.Copy(tmp),
		hash:      fnv64a(tmp),
		wireAttrs: int32(attrsWireSize(r.Attrs)),
	}
	if cap(tmp) <= arenaMaxCopy {
		*scratch = tmp[:0]
	}
	encScratchPool.Put(scratch)
	if !r.cache.CompareAndSwap(nil, c) {
		return r.cache.Load()
	}
	return c
}

// Encoding returns the row's canonical attribute encoding (sorted-key
// value.Map encoding). The result is shared; callers must not mutate it.
func (r *SharedRow) Encoding() []byte { return r.ensure().enc }

// AttrsHash returns the FNV-64a hash of the canonical encoding, used in
// gossip digests.
func (r *SharedRow) AttrsHash() uint64 { return r.ensure().hash }

// WireAttrsSize returns the attributes' size under the binary wire codec
// (which packs sparse byte arrays, so it is usually smaller than the
// canonical encoding).
func (r *SharedRow) WireAttrsSize() int { return int(r.ensure().wireAttrs) }

// AdoptCache carries o's computed caches over to r. Valid only when r's
// Attrs hold exactly the same content as o's (a signed row re-issued at a
// new time with unchanged attributes needs a new signature, hence a new
// row, but not a new encoding).
func (r *SharedRow) AdoptCache(o *SharedRow) {
	if c := o.cache.Load(); c != nil {
		r.cache.CompareAndSwap(nil, c)
	}
}

// Update renders the row as a RowUpdate for the given zone as issued at
// the holder's stamp, carrying the shared pointer so receivers on the
// in-memory transport can install it without copying.
func (r *SharedRow) Update(zone string, issued time.Time) RowUpdate {
	return RowUpdate{
		Zone:   zone,
		Name:   r.Name,
		Attrs:  r.Attrs,
		Issued: issued,
		Owner:  r.Owner,
		Signer: r.Signer,
		Sig:    r.Sig,
		shared: r,
	}
}

// Shared returns the SharedRow this update was rendered from, or nil for
// updates built field-by-field (decoded messages, tests).
func (u *RowUpdate) Shared() *SharedRow { return u.shared }

// AsShared returns a SharedRow holding this update's content (everything
// but Zone and Issued): the carried pointer when present, otherwise a
// freshly built row that takes ownership of u.Attrs (decode paths hand the
// map over; it is not aliased elsewhere).
func (u *RowUpdate) AsShared() *SharedRow {
	if u.shared != nil {
		return u.shared
	}
	return &SharedRow{
		Name:   u.Name,
		Attrs:  u.Attrs,
		Owner:  u.Owner,
		Signer: u.Signer,
		Sig:    u.Sig,
	}
}

// fnv64a is the 64-bit FNV-1a hash, inlined to keep digest construction
// allocation-free.
func fnv64a(b []byte) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
