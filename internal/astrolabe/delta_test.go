package astrolabe

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"newswire/internal/sim"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// TestQuiescentTickZeroAggEvals is the incremental-aggregation
// acceptance check: once nothing but heartbeats is happening, a Tick
// must not evaluate the aggregation program at all — clean zones only
// re-stamp the aggregate row this agent owns.
func TestQuiescentTickZeroAggEvals(t *testing.T) {
	// Strict single-agent case first: no gossip traffic at all.
	solo := newTestCluster(t, []string{"/usa/ny"}, nil)
	a := solo.agents[0]
	base := a.Stats().AggEvals
	if base == 0 {
		t.Fatal("construction should have evaluated the aggregation at least once")
	}
	for i := 0; i < 5; i++ {
		a.Tick()
	}
	if got := a.Stats().AggEvals; got != base {
		t.Fatalf("quiescent ticks ran %d extra Eval calls", got-base)
	}

	// Cluster case: after convergence, gossip carries only heartbeat
	// re-stamps, which must not dirty any zone.
	c := newTestCluster(t, []string{"/usa/ny", "/usa/ny", "/usa/sf", "/usa/sf"}, nil)
	c.runRounds(10)
	before := int64(0)
	for _, ag := range c.agents {
		before += ag.Stats().AggEvals
	}
	c.runRounds(5)
	after := int64(0)
	for _, ag := range c.agents {
		after += ag.Stats().AggEvals
	}
	if after != before {
		t.Fatalf("steady-state rounds ran %d Eval calls, want 0", after-before)
	}

	// A real content change must evaluate again.
	c.agents[0].SetAttr("cpu", value.Float(0.5))
	changed := int64(0)
	for _, ag := range c.agents {
		changed += ag.Stats().AggEvals
	}
	if changed == after {
		t.Fatal("SetAttr did not trigger re-aggregation")
	}
}

// digestRow is one row as a peer's section describes it.
type digestRow struct {
	name   string
	issued time.Time
	hash   uint64
}

// namedSection is the section a peer holding rows in its table at depth
// would answer a mismatching digest with.
func namedSection(depth int, rows ...digestRow) wire.ZoneSection {
	slices.SortFunc(rows, func(x, y digestRow) int { return strings.Compare(x.name, y.name) })
	s := wire.ZoneSection{Depth: depth}
	for _, r := range rows {
		if r.issued.After(s.Newest) {
			s.Newest = r.issued
		}
	}
	for _, r := range rows {
		s.Lags = append(s.Lags, s.Newest.Sub(r.issued))
		s.Named = append(s.Named, wire.RowSummary{Name: r.name, Hash: r.hash})
	}
	return s
}

// diffSections runs sections sent by an agent of fromZone through a's diff,
// as the handler of a digest does.
func diffSections(a *Agent, fromZone string, sections ...wire.ZoneSection) delta {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out delta
	a.diffSectionsLocked(&out, fromZone, sections, true)
	return out
}

// stampedNames resolves the stamps of a diff against the section they
// answer: the name each one moves, and the time it moves it to.
func stampedNames(t *testing.T, out delta, s wire.ZoneSection) map[string]time.Time {
	t.Helper()
	got := map[string]time.Time{}
	for _, z := range out.stamps {
		if z.Depth != s.Depth || z.Hash != s.Hash {
			t.Fatalf("stamps for depth %d echo %x, want depth %d hash %x", z.Depth, z.Hash, s.Depth, s.Hash)
		}
		for _, r := range z.Rows {
			got[s.Named[r.Pos].Name] = z.Newest.Add(-r.Lag)
		}
	}
	return got
}

// TestDigestDiff exercises every branch of the section diff rules
// directly against one agent's tables.
func TestDigestDiff(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z"}, nil)
	a := c.agents[0]
	now := c.eng.Now()

	// Seed a third-party row the initiator will be stale on, and one it
	// will be fresher on.
	a.MergeRows([]wire.RowUpdate{
		{Zone: "/z", Name: "stale-here", Attrs: value.Map{"x": value.Int(1)}, Issued: now.Add(-time.Minute)},
		{Zone: "/z", Name: "fresh-here", Attrs: value.Map{"x": value.Int(2)}, Issued: now.Add(time.Minute)},
		{Zone: "/z", Name: "tied", Attrs: value.Map{"x": value.Int(3)}, Issued: now},
	})

	tiedHash := (&wire.SharedRow{Attrs: value.Map{"x": value.Int(3)}}).AttrsHash()
	out := diffSections(a, "/z",
		namedSection(1,
			// We lack this row entirely → should land in Want.
			digestRow{name: "unknown", issued: now},
			// Initiator's copy is fresher than ours → Want.
			digestRow{name: "stale-here", issued: now},
			// Initiator's copy is staler than ours → Rows.
			digestRow{name: "fresh-here", issued: now},
			// Same stamp, same content → neither.
			digestRow{name: "tied", issued: now, hash: tiedHash}),
		// A table the two agents do not share → ignored.
		namedSection(2, digestRow{name: "x", issued: now}))

	wantSet := map[string]bool{}
	for _, w := range out.want {
		wantSet[w.Zone+"|"+w.Name] = true
	}
	rowSet := map[string]bool{}
	for i := range out.rows {
		rowSet[out.rows[i].Zone+"|"+out.rows[i].Name] = true
	}

	for _, k := range []string{"/z|unknown", "/z|stale-here"} {
		if !wantSet[k] {
			t.Errorf("want set missing %s: %v", k, out.want)
		}
	}
	if !rowSet["/z|fresh-here"] {
		t.Errorf("rows missing fresh-here: %v", rowSet)
	}
	if wantSet["/z|tied"] || rowSet["/z|tied"] {
		t.Error("identical row exchanged despite matching digest")
	}
	if len(wantSet) != 2 || len(out.sections) != 0 {
		t.Errorf("unshared table leaked into the diff: want %v, sections %v", out.want, out.sections)
	}
	// Rows the initiator's section does not name (our own row, its peer
	// rows) must be pushed.
	if !rowSet["/z|node-0"] || !rowSet["/z|node-1"] {
		t.Errorf("unnamed local rows not pushed: %v", rowSet)
	}

	// Same stamp + different hash → both directions, so the encoded
	// tie-break can run on both sides.
	out = diffSections(a, "/z", namedSection(1, digestRow{name: "tied", issued: now, hash: tiedHash + 1}))
	foundRow, foundWant := false, false
	for i := range out.rows {
		if out.rows[i].Name == "tied" {
			foundRow = true
		}
	}
	for _, w := range out.want {
		if w.Name == "tied" {
			foundWant = true
		}
	}
	if !foundRow || !foundWant {
		t.Fatalf("hash mismatch at equal stamps must exchange both ways (row=%v want=%v)",
			foundRow, foundWant)
	}

	// A bare section of other content cannot be read: it is answered with
	// our own section for the zone, every row named.
	a.mu.Lock()
	bare := a.sectionLocked(1, nil, false)
	a.mu.Unlock()
	bare.Hash++
	out = diffSections(a, "/z", bare)
	if len(out.rows)+len(out.want)+len(out.stamps) != 0 || len(out.sections) != 1 {
		t.Fatalf("mismatching bare section diffed to %+v", out)
	}
	if s := out.sections[0]; s.Depth != 1 || s.Hash != bare.Hash-1 || len(s.Named) != len(bare.Lags) ||
		!slices.IsSortedFunc(s.Named, func(x, y wire.RowSummary) int { return strings.Compare(x.Name, y.Name) }) {
		t.Fatalf("answering section = %+v", s)
	}
}

// TestFullStateFallbackConverges ties delta gossip to the full-state
// reference exchange: a cluster gossiping by the oracle converges, with
// no digest on the wire, to the very tables the same cluster reaches by
// delta gossip.
func TestFullStateFallbackConverges(t *testing.T) {
	zones := []string{"/usa/ny", "/usa/ny", "/asia/jp", "/asia/jp"}
	full := newFullStateCluster(t, zones, func(int) bool { return true })
	full.runRounds(10)
	delta := newTestCluster(t, zones, nil)
	delta.runRounds(10)
	for i, a := range full.agents {
		usa, ok1 := a.Row("/", "usa")
		asia, ok2 := a.Row("/", "asia")
		if !ok1 || !ok2 {
			t.Fatalf("agent %d root table incomplete", i)
		}
		if n, _ := usa.Attrs[AttrMembers].AsInt(); n != 2 {
			t.Fatalf("agent %d sees usa nmembers=%v", i, usa.Attrs[AttrMembers])
		}
		if n, _ := asia.Attrs[AttrMembers].AsInt(); n != 2 {
			t.Fatalf("agent %d sees asia nmembers=%v", i, asia.Attrs[AttrMembers])
		}
		for _, zone := range a.Chain() {
			frows, _ := a.Table(zone)
			drows, _ := delta.agents[i].Table(zone)
			if len(frows) != len(drows) {
				t.Fatalf("agent %d zone %s: full-state has %d rows, delta %d", i, zone, len(frows), len(drows))
			}
			for j := range frows {
				if frows[j].Name != drows[j].Name || !frows[j].Attrs.Equal(drows[j].Attrs) {
					t.Fatalf("agent %d zone %s row %d: full-state %s %v, delta %s %v", i, zone, j,
						frows[j].Name, frows[j].Attrs, drows[j].Name, drows[j].Attrs)
				}
			}
		}
	}
	if sent := full.net.SentByKind(wire.KindGossipDigest); sent.Msgs != 0 {
		t.Fatalf("full-state cluster sent %d digests", sent.Msgs)
	}
}

// TestMixedModeConverges runs half the agents on delta gossip and half
// on the full-state exchange: a delta agent merges the rows a full-state
// exchange pushes, and a full-state agent answers digests as any agent
// does, so the two must still converge.
func TestMixedModeConverges(t *testing.T) {
	zones := []string{"/usa/ny", "/usa/ny", "/asia/jp", "/asia/jp"}
	c := newFullStateCluster(t, zones, func(i int) bool { return i%2 == 0 })
	c.runRounds(10)
	for i, a := range c.agents {
		usa, _ := a.Row("/", "usa")
		asia, _ := a.Row("/", "asia")
		if n, _ := usa.Attrs[AttrMembers].AsInt(); n != 2 {
			t.Fatalf("agent %d sees usa nmembers=%v", i, usa.Attrs[AttrMembers])
		}
		if n, _ := asia.Attrs[AttrMembers].AsInt(); n != 2 {
			t.Fatalf("agent %d sees asia nmembers=%v", i, asia.Attrs[AttrMembers])
		}
	}
}

// TestDeltaGossipByteSavings drives two identical leaf zones — one by
// delta gossip, one by the full-state exchange — and checks the delta
// variant moves fewer bytes in steady state, as the network charges them
// (wire.Message.EstimateSize of every message sent).
func TestDeltaGossipByteSavings(t *testing.T) {
	run := func(fullState bool) int64 {
		zones := make([]string, 8)
		for i := range zones {
			zones[i] = "/z"
		}
		c := newFullStateCluster(t, zones, func(int) bool { return fullState })
		// Realistic row weight: every member carries a subscription Bloom
		// filter (the paper's 1024-bit geometry) at its design load —
		// roughly half the bits set, so the codec's sparse-bytes packing
		// cannot engage. An all-zero filter would pack to a few bytes and
		// understate full-gossip row weight.
		for i, a := range c.agents {
			subs := make([]byte, 128)
			x := uint32(i + 1)
			for j := range subs {
				x = x*1664525 + 1013904223
				subs[j] = byte(x >> 24)
			}
			a.SetAttr(AttrSubs, value.Bytes(subs))
		}
		c.runRounds(5)
		start, _ := c.net.BytesTotals()
		c.runRounds(10)
		end, _ := c.net.BytesTotals()
		return end - start
	}
	full := run(true)
	delta := run(false)
	if delta*2 > full {
		t.Fatalf("delta gossip sent %d bytes, full %d — want at least 2x savings", delta, full)
	}
}

// TestGossipByteAccountingMatchesWire cross-checks the agents' byte
// counter against what the simulated network charged for the same
// messages: both read wire.Message.EstimateSize, so a difference means a
// message was sent and not counted, or counted and not sent.
func TestGossipByteAccountingMatchesWire(t *testing.T) {
	zones := []string{"/z", "/z", "/z"}
	c := newTestCluster(t, zones, nil)
	c.runRounds(6)
	var agents int64
	for _, a := range c.agents {
		agents += a.Stats().GossipBytesSent
	}
	netSent, _ := c.net.BytesTotals()
	// The network total includes the same messages; bootstrap MergeRows
	// bypasses the network, and agents only send gossip kinds, so the
	// two totals must match exactly.
	if agents != netSent {
		t.Fatalf("agent accounting %d bytes, network charged %d", agents, netSent)
	}
}

// --- regression benchmarks for the encoding cache ---

// benchAgentPair returns two converged same-zone agents and a batch of
// row updates b will repeatedly merge into a.
func benchAgentPair(b *testing.B, nrows int) (*Agent, []wire.RowUpdate) {
	b.Helper()
	eng := sim.NewEngine(1)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	ep := net.Attach("bench", func(*wire.Message) {})
	a, err := NewAgent(Config{
		Name: "bench", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]wire.RowUpdate, nrows)
	for i := range rows {
		rows[i] = wire.RowUpdate{
			Zone: "/z", Name: fmt.Sprintf("peer-%d", i),
			Attrs: value.Map{
				AttrAddr: value.String(fmt.Sprintf("p%d", i)),
				AttrLoad: value.Float(float64(i) / float64(nrows)),
				AttrSubs: value.Bytes(make([]byte, 128)),
			},
			Issued: eng.Now(),
			Owner:  fmt.Sprintf("p%d", i),
		}
	}
	a.MergeRows(rows)
	return a, rows
}

// BenchmarkMergeEqualStampTieBreak hits the worst case the attrsLess
// double-encoding fix targets: every incoming row carries the stored
// row's issue time with different content, forcing the encoded
// tie-break on each merge. The stored side must come from the row's
// encoding cache.
func BenchmarkMergeEqualStampTieBreak(b *testing.B) {
	a, rows := benchAgentPair(b, 64)
	// Same stamps, different content, and an encoding that orders below
	// the stored rows so the merge never replaces them (steady worst
	// case; replacement would reset the cache each iteration).
	challenge := make([]wire.RowUpdate, len(rows))
	for i := range rows {
		challenge[i] = rows[i]
		attrs := rows[i].Attrs.Clone()
		attrs[AttrAddr] = value.String("!") // sorts first in the encoding
		challenge[i].Attrs = attrs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MergeRows(challenge)
	}
}

// BenchmarkMergeFreshHeartbeats models the dominant steady-state load:
// re-delivery of identical rows with advanced issue times.
func BenchmarkMergeFreshHeartbeats(b *testing.B) {
	a, rows := benchAgentPair(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j].Issued = rows[j].Issued.Add(time.Millisecond)
		}
		a.MergeRows(rows)
	}
}

// BenchmarkDigestBuild measures building the digest for a full 64-row
// leaf zone — the per-partner cost of initiating delta gossip.
func BenchmarkDigestBuild(b *testing.B) {
	a, _ := benchAgentPair(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.mu.Lock()
		m := a.digestLocked(len(a.chain))
		a.mu.Unlock()
		if len(m.GossipDigest.Sections) == 0 {
			b.Fatal("empty digest")
		}
	}
}

// TestDigestDiffStamps pins the stamp rules: a fresher local row whose
// bytes the initiator already holds travels as a stamp, not a full row;
// an initiator-fresher hash-equal digest re-stamps the stored row
// locally with no wire traffic; signed rows always use the full path.
func TestDigestDiffStamps(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z"}, nil)
	a := c.agents[0]
	now := c.eng.Now()

	attrs := value.Map{"x": value.Int(9)}
	hash := (&wire.SharedRow{Attrs: attrs}).AttrsHash()
	a.MergeRows([]wire.RowUpdate{
		{Zone: "/z", Name: "peer", Attrs: attrs, Issued: now},
		{Zone: "/z", Name: "signed", Attrs: attrs, Issued: now,
			Signer: "ca", Sig: []byte{1, 2, 3}},
	})

	// Initiator lags by a minute but already holds the bytes → stamp.
	section := namedSection(1,
		digestRow{name: "peer", issued: now.Add(-time.Minute), hash: hash},
		digestRow{name: "signed", issued: now.Add(-time.Minute), hash: hash},
		// Cover the rest of the table so nothing is left unnamed.
		digestRow{name: "node-0", issued: now.Add(time.Hour)},
		digestRow{name: "node-1", issued: now.Add(time.Hour)})
	section.Hash = 0xfeed
	out := diffSections(a, "/z", section)
	if got := stampedNames(t, out, section); len(got) != 1 || !got["peer"].Equal(now) {
		t.Fatalf("expected one stamp moving peer to %v, got %v", now, got)
	}
	for i := range out.rows {
		if out.rows[i].Name == "peer" {
			t.Fatalf("hash-equal unsigned row travelled whole: %+v", out.rows[i])
		}
	}
	foundSigned := false
	for i := range out.rows {
		if out.rows[i].Name == "signed" {
			foundSigned = true
		}
	}
	if !foundSigned {
		t.Fatalf("signed row must travel whole, rows=%v want=%v", out.rows, out.want)
	}

	// Initiator fresher + hash equal → local re-stamp, no want ref.
	fresher := now.Add(time.Minute)
	out = diffSections(a, "/z", namedSection(1, digestRow{name: "peer", issued: fresher, hash: hash}))
	for _, w := range out.want {
		if w.Name == "peer" {
			t.Fatalf("hash-equal fresher digest should re-stamp locally, not want: %+v", out.want)
		}
	}
	if len(out.stamps) != 0 {
		t.Fatalf("unexpected stamps: %+v", out.stamps)
	}
	got, ok := a.Row("/z", "peer")
	if !ok || !got.Issued.Equal(fresher) {
		t.Fatalf("row not re-stamped locally: %+v", got)
	}
	if !got.Attrs.Equal(attrs) {
		t.Fatalf("re-stamp changed content: %+v", got.Attrs)
	}
	if st := a.Stats(); st.StampsApplied == 0 {
		t.Fatal("StampsApplied not counted")
	}

	// Signed row with a fresher digest must produce a want, never a
	// local re-stamp.
	out = diffSections(a, "/z", namedSection(1, digestRow{name: "signed", issued: fresher, hash: hash}))
	foundWant := false
	for _, w := range out.want {
		if w.Name == "signed" {
			foundWant = true
		}
	}
	if !foundWant {
		t.Fatal("fresher signed digest must be wanted as a full row")
	}
}

// TestApplyStamps pins receiver-side stamp application rules.
func TestApplyStamps(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z"}, nil)
	a := c.agents[0]
	now := c.eng.Now()

	attrs := value.Map{"x": value.Int(5)}
	a.MergeRows([]wire.RowUpdate{
		{Zone: "/z", Name: "peer", Attrs: attrs, Issued: now},
	})
	ownIssued, _ := a.Row("/z", "node-0")

	// The leaf table is node-0 (a itself), node-1, peer, in that order.
	const own, peer = 0, 2
	later := now.Add(30 * time.Second)
	newest := later.Add(time.Hour)
	lagTo := func(at time.Time) time.Duration { return newest.Sub(at) }
	a.mu.Lock()
	echo := a.tableLocked("/z").hash
	a.applyStampsLocked([]wire.ZoneStamps{
		{Depth: 1, Hash: echo, Newest: newest, Rows: []wire.RowStamp{
			{Pos: peer, Lag: lagTo(later)}, // applies
			{Pos: peer, Lag: lagTo(now)},   // stale: no-op
			{Pos: 3, Lag: lagTo(later)},    // past the table
			{Pos: own, Lag: 0},             // own row: never
		}},
		{Depth: 2, Hash: echo, Newest: newest, Rows: []wire.RowStamp{{Pos: peer}}},     // unreplicated zone
		{Depth: 1, Hash: echo + 1, Newest: newest, Rows: []wire.RowStamp{{Pos: peer}}}, // another table's positions
	})
	a.mu.Unlock()

	got, _ := a.Row("/z", "peer")
	if !got.Issued.Equal(later) {
		t.Fatalf("peer row Issued = %v, want %v", got.Issued, later)
	}
	own1, _ := a.Row("/z", "node-0")
	if !own1.Issued.Equal(ownIssued.Issued) {
		t.Fatal("own row must never be re-stamped from a peer's stamp")
	}
	if rows, _ := a.Table("/z"); len(rows) != 3 {
		t.Fatalf("stamps changed the table to %d rows", len(rows))
	}
}

// TestStampsDroppedWhenTableChangedBetweenLegs: stamps name rows by their
// position in the digest they answer. If the table gains or loses a row
// while the answer is in flight, a position means another row — here the
// stale row of a member that left — and a stamp landing on it would keep
// that row from ever expiring. The echoed hash no longer matches, so the
// whole zone's stamps are dropped, and the next exchange carries them.
func TestStampsDroppedWhenTableChangedBetweenLegs(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z", "/z"}, nil)
	c.runRounds(8)
	a, b := c.agents[0], c.agents[1]

	// Leg 1: a describes its tables to b, who holds the same content with
	// node-2's row a minute fresher (past any stamp lag).
	a.mu.Lock()
	digest := a.digestLocked(len(a.chain))
	a.mu.Unlock()
	row, _ := b.Row("/z", "node-2")
	fresh := row.Issued.Add(time.Minute)
	b.mu.Lock()
	tb := b.tableLocked("/z")
	i, _ := tb.find("node-2")
	b.restampLocked(tb, i, fresh)
	b.mu.Unlock()
	// Leg 2: b's answer, captured in flight.
	var answer *wire.Message
	b.cfg.Transport = &captureTransport{addr: b.addr, send: func(_ string, m *wire.Message) { answer = m }}
	b.HandleMessage(digest)
	if answer == nil || len(answer.GossipDelta.Stamps) == 0 {
		t.Fatalf("b answered %+v, want stamps", answer)
	}
	moves := false
	for _, z := range answer.GossipDelta.Stamps {
		for _, s := range z.Rows {
			moves = moves || (z.Depth == 1 && s.Pos == 2) // node-0, node-1, node-2
		}
	}
	if !moves {
		t.Fatalf("no stamp for node-2 at position 2: %+v", answer.GossipDelta.Stamps)
	}

	// Meanwhile a learns of node-15, long gone: its row sorts into node-2's
	// position.
	dead := c.eng.Now().Add(-time.Hour)
	a.MergeRows([]wire.RowUpdate{{
		Zone: "/z", Name: "node-15", Issued: dead,
		Attrs: value.Map{AttrAddr: value.String("n15")}, Owner: "n15",
	}})
	before, _ := a.Row("/z", "node-2")
	a.HandleMessage(answer)
	if got, _ := a.Row("/z", "node-15"); !got.Issued.Equal(dead) {
		t.Fatalf("a stamp for node-2 landed on node-15: issued %v, want %v", got.Issued, dead)
	}
	if got, _ := a.Row("/z", "node-2"); !got.Issued.Equal(before.Issued) {
		t.Fatalf("a stamp was applied to a table that changed since it was described")
	}

	// Unchanged, the same answer applies.
	a.mu.Lock()
	ta := a.tableLocked("/z")
	i, _ = ta.find("node-15")
	ta.del(i)
	a.mu.Unlock()
	a.HandleMessage(answer)
	if got, _ := a.Row("/z", "node-2"); !got.Issued.Equal(fresh) {
		t.Fatalf("stamp not applied to the table it was made for: issued %v, want %v", got.Issued, fresh)
	}
}

// TestSteadyStateGossipsStampsNotRows is the end-to-end guarantee the
// byte optimization rests on: once a cluster converges, anti-entropy
// stops shipping full rows at all — heartbeat refreshes travel as
// stamps or re-stamp locally from digests.
func TestSteadyStateGossipsStampsNotRows(t *testing.T) {
	zones := []string{"/z", "/z", "/z", "/z"}
	c := newTestCluster(t, zones, nil)
	c.runRounds(10)

	var rowsBefore, stampsBefore int64
	for _, a := range c.agents {
		st := a.Stats()
		rowsBefore += st.RowsSent
		stampsBefore += st.StampsSent
	}
	c.runRounds(10)
	var rowsAfter, stampsAfter, applied int64
	for _, a := range c.agents {
		st := a.Stats()
		rowsAfter += st.RowsSent
		stampsAfter += st.StampsSent
		applied += st.StampsApplied
	}
	if rowsAfter != rowsBefore {
		t.Fatalf("steady-state rounds shipped %d full rows, want 0", rowsAfter-rowsBefore)
	}
	if stampsAfter == stampsBefore && applied == 0 {
		t.Fatal("no stamps sent or applied in steady state — heartbeats are not propagating")
	}
	// And heartbeats must still propagate: no agent may see another's
	// leaf row go stale enough to expire.
	c.runRounds(15)
	for i, a := range c.agents {
		rows, _ := a.Table("/z")
		if len(rows) != len(zones) {
			t.Fatalf("agent %d leaf table shrank to %d rows — stamps broke failure detection", i, len(rows))
		}
	}
}

// TestSignedClusterNeverStamps: with row signing on, every refresh must
// travel as a full signed row (a stamp would fabricate an issue time the
// owner never signed).
func TestSignedClusterNeverStamps(t *testing.T) {
	sign := func(r *wire.RowUpdate) {
		r.Signer = "test-ca"
		r.Sig = append([]byte("sig:"), r.SignedPayload()...)
	}
	verify := func(r *wire.RowUpdate) error {
		want := append([]byte("sig:"), r.SignedPayload()...)
		if r.Signer != "test-ca" || !bytes.Equal(r.Sig, want) {
			return fmt.Errorf("bad signature")
		}
		return nil
	}
	zones := []string{"/z", "/z", "/z"}
	c := newTestCluster(t, zones, func(i int, cfg *Config) {
		cfg.SignRow = sign
		cfg.VerifyRow = verify
	})
	c.runRounds(12)
	for i, a := range c.agents {
		st := a.Stats()
		if st.StampsSent != 0 || st.StampsApplied != 0 {
			t.Fatalf("agent %d used stamps on signed rows (sent=%d applied=%d)",
				i, st.StampsSent, st.StampsApplied)
		}
		rows, _ := a.Table("/z")
		if len(rows) != len(zones) {
			t.Fatalf("signed cluster agent %d sees %d rows", i, len(rows))
		}
	}
}
