// Package trace implements per-item delivery tracing: lightweight span
// records keyed by an item envelope's unique publisher/ID/revision key,
// emitted by the multicast router, the node core and the message cache as
// an item travels hop by hop through the zone tree. A trace explains the
// quantities the experiment tables only aggregate — which hop made a
// delivery the p99 outlier, which forwarder a retry failed over from,
// where a duplicate was suppressed, which peer's cache served a recovery.
//
// Forward spans are the one record of where an item went; PathTo walks
// them back from a delivery, and Slowest explains the slowest deliveries
// with those paths.
//
// Recording is opt-in per component through the Recorder interface; a nil
// recorder costs one pointer comparison on each would-be span, so the
// disabled path adds no allocation and no measurable time to the hot
// paths (BenchmarkGossipRound guards this in CI).
//
// Two recorders cover the two deployment modes:
//
//   - Collector buffers spans per simulated node and merges them in a
//     canonical deterministic order. It is safe under the parallel
//     executor's compute/commit phases because each node's events are
//     single-threaded within a window, so every buffer has exactly one
//     writer at a time; the merge order depends only on span timestamps
//     (virtual time) and node indices, never on scheduling.
//   - Ring is a bounded mutex-protected ring buffer for live nodes:
//     constant memory, newest spans win, safe for concurrent transport
//     goroutines.
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind classifies a span.
type Kind uint8

// Span kinds, in rough lifecycle order of an item.
const (
	// KindPublish marks an item's injection at its publisher.
	KindPublish Kind = iota + 1
	// KindForward is one outbound multicast transmission toward a zone.
	KindForward
	// KindDeliver is a local application delivery at a leaf.
	KindDeliver
	// KindAck records an acknowledgment resolving a reliable forward.
	KindAck
	// KindRetry is a retransmission after an ack deadline expired.
	KindRetry
	// KindFailover is a retry that switched to an alternate representative.
	KindFailover
	// KindDedupDrop is a duplicate suppressed by the router's forwarding
	// or delivery dedup, or by the message cache's stored mark.
	KindDedupDrop
	// KindCacheServe is a cache answering a peer's state-transfer request.
	KindCacheServe
	// KindGossipCarry is an item recovered through the anti-entropy /
	// state-transfer path rather than the multicast tree.
	KindGossipCarry
	// KindDeliveryFail is a reliable forward abandoned after MaxAttempts.
	KindDeliveryFail
)

var kindNames = [...]string{
	KindPublish:      "publish",
	KindForward:      "forward",
	KindDeliver:      "deliver",
	KindAck:          "ack",
	KindRetry:        "retry",
	KindFailover:     "failover",
	KindDedupDrop:    "dedup-drop",
	KindCacheServe:   "cache-serve",
	KindGossipCarry:  "gossip-carry",
	KindDeliveryFail: "delivery-fail",
}

// String returns the kind's wire/display name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its display name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a display name back into a Kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown span kind %q", s)
}

// Span is one recorded event in an item's delivery. Node is the recording
// node's transport address; To names the far side for forwards, acks and
// cache serves. At is the recording node's clock — virtual time in
// simulation, wall time live.
type Span struct {
	Kind    Kind      `json:"kind"`
	Key     string    `json:"key,omitempty"` // item envelope key
	TraceID uint64    `json:"trace,omitempty"`
	Node    string    `json:"node"`
	Zone    string    `json:"zone,omitempty"`
	To      string    `json:"to,omitempty"`
	Hop     int       `json:"hop,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	At      time.Time `json:"at"`
	Note    string    `json:"note,omitempty"`
}

// DeriveTraceID returns the deterministic trace identifier for an item
// envelope key: the FNV-64a hash of the key, never zero. Deriving the ID
// from the key — rather than minting randomness at publish time — keeps
// traced and untraced runs bit-identical, and lets any process recompute
// the ID from the envelope alone, so spans recorded by different
// newswired processes join into one trace without coordination.
func DeriveTraceID(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// ByTrace returns the spans carrying trace id, preserving input order.
// Feeding it the merged /trace.json output of several processes yields
// the item's joined cross-process trace.
func ByTrace(spans []Span, id uint64) []Span {
	var out []Span
	for i := range spans {
		if spans[i].TraceID == id {
			out = append(out, spans[i])
		}
	}
	return out
}

// Recorder receives spans. Implementations must tolerate concurrent calls
// when used outside the simulator's single-writer-per-node discipline.
// Components hold a Recorder field and skip emission entirely when it is
// nil; that nil check is the whole cost of disabled tracing.
type Recorder interface {
	Record(s Span)
}

// Collector is the deterministic in-memory recorder for simulated
// clusters. Each node records through its own handle into its own buffer;
// the simulator guarantees one writer per buffer at a time (serially, or
// within the parallel executor's windows where a node's events never run
// on two workers at once), so appends need no lock. Spans() merges the
// buffers into a canonical order that is bit-identical between serial and
// parallel execution of the same seed.
type Collector struct {
	bufs [][]Span
}

// NewCollector returns a collector with n per-node buffers.
func NewCollector(n int) *Collector {
	return &Collector{bufs: make([][]Span, n)}
}

// Node returns node i's recording handle.
func (c *Collector) Node(i int) Recorder { return nodeRecorder{c: c, i: i} }

type nodeRecorder struct {
	c *Collector
	i int
}

func (r nodeRecorder) Record(s Span) {
	r.c.bufs[r.i] = append(r.c.bufs[r.i], s)
}

// Len returns the total number of recorded spans.
func (c *Collector) Len() int {
	n := 0
	for _, b := range c.bufs {
		n += len(b)
	}
	return n
}

// Spans merges every node's buffer into canonical order: ascending
// timestamp, ties broken by node index, intra-node order preserved. The
// result depends only on what each node recorded and when — both
// invariant between serial and parallel executor runs — never on worker
// scheduling.
func (c *Collector) Spans() []Span {
	type tagged struct {
		node int
		span *Span
	}
	all := make([]tagged, 0, c.Len())
	for i := range c.bufs {
		for j := range c.bufs[i] {
			all = append(all, tagged{node: i, span: &c.bufs[i][j]})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		ta, tb := all[a].span.At, all[b].span.At
		if !ta.Equal(tb) {
			return ta.Before(tb)
		}
		return all[a].node < all[b].node
	})
	out := make([]Span, len(all))
	for i, t := range all {
		out[i] = *t.span
	}
	return out
}

// Ring is the bounded recorder for live nodes: a fixed-capacity ring
// buffer where the newest spans overwrite the oldest. Safe for concurrent
// use from transport goroutines.
type Ring struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total int64
}

// NewRing returns a ring holding up to cap spans (<= 0 selects 4096).
func NewRing(cap int) *Ring {
	if cap <= 0 {
		cap = 4096
	}
	return &Ring{buf: make([]Span, 0, cap)}
}

// Record implements Recorder.
func (r *Ring) Record(s Span) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Spans returns a copy of the retained spans, oldest first.
func (r *Ring) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Recorded returns the total number of spans ever recorded, including
// those the ring has since overwritten.
func (r *Ring) Recorded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Fingerprint digests a span slice (order-sensitively); two runs with
// equal fingerprints recorded identical span sequences. The serial-vs-
// parallel equality gates compare Collector.Spans() fingerprints.
func Fingerprint(spans []Span) string {
	h := sha256.New()
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(h, "%d|%s|%s|%s|%s|%d|%d|%d|%s\x00",
			s.Kind, s.Key, s.Node, s.Zone, s.To, s.Hop, s.Attempt, s.At.UnixNano(), s.Note)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// PathTo reconstructs the hop chain that brought item key to the node
// with transport address dst: deliver span first located, then the chain
// of forward spans walked backwards (each hop the earliest transmission
// toward the current node at or before the downstream span's timestamp),
// ending at the publish span when the walk reaches the publisher. The
// result is ordered publish-first. With k-redundant forwarding the walk
// picks the earliest plausible transmission per hop, which is the copy
// that won the race in the common case.
func PathTo(spans []Span, key, dst string) []Span {
	var deliver *Span
	for i := range spans {
		s := &spans[i]
		if s.Kind == KindDeliver && s.Key == key && s.Node == dst {
			deliver = s
			break // canonical order: first deliver is the real one
		}
	}
	if deliver == nil {
		return nil
	}
	path := []Span{*deliver}
	cur, curAt := dst, deliver.At
	for hop := 0; hop < 64; hop++ {
		var best *Span
		for i := range spans {
			s := &spans[i]
			if s.Kind != KindForward || s.Key != key || s.To != cur || s.At.After(curAt) {
				continue
			}
			if best == nil || s.At.Before(best.At) {
				best = s
			}
		}
		if best == nil {
			break
		}
		path = append(path, *best)
		cur, curAt = best.Node, best.At
	}
	for i := range spans {
		s := &spans[i]
		if s.Kind == KindPublish && s.Key == key && s.Node == cur {
			path = append(path, *s)
			break
		}
	}
	// Walked backwards; return publish-first.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Delivery is one application delivery explained hop by hop: the item
// key, the delivering node, the publish-to-deliver latency and the hop
// path that brought it there.
type Delivery struct {
	Key     string        `json:"key"`
	Node    string        `json:"node"`
	Latency time.Duration `json:"latency"`
	Hops    []Hop         `json:"hops"`
}

// Hop is one span on a delivery path plus the time spent since the
// previous hop (zero on the first).
type Hop struct {
	Span  Span          `json:"span"`
	Delta time.Duration `json:"delta"`
}

// Slowest answers "where did the slow items go": each deliver span's
// latency is its offset from the first publish span of its key, the n
// slowest deliveries (all of them when n <= 0; ties keep span order) get
// their hop paths from PathTo. spans must be in canonical order, as
// Collector.Spans returns them; deliveries of items whose publish span
// is absent are skipped.
func Slowest(spans []Span, n int) []Delivery {
	publishAt := make(map[string]time.Time)
	for i := range spans {
		s := &spans[i]
		if s.Kind != KindPublish {
			continue
		}
		if _, ok := publishAt[s.Key]; !ok {
			publishAt[s.Key] = s.At
		}
	}
	var out []Delivery
	for i := range spans {
		s := &spans[i]
		if s.Kind != KindDeliver {
			continue
		}
		if pub, ok := publishAt[s.Key]; ok {
			out = append(out, Delivery{Key: s.Key, Node: s.Node, Latency: s.At.Sub(pub)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Latency > out[j].Latency })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	for i := range out {
		d := &out[i]
		var prev time.Time
		for _, s := range PathTo(spans, d.Key, d.Node) {
			hop := Hop{Span: s}
			if !prev.IsZero() {
				hop.Delta = s.At.Sub(prev)
			}
			prev = s.At
			d.Hops = append(d.Hops, hop)
		}
	}
	return out
}
