package astrolabe

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"newswire/internal/value"
	"newswire/internal/wire"
)

// These tests pin the row model of DESIGN.md §8: a table entry is shared
// immutable content plus this replica's own stamp, a heartbeat moves the
// stamp and nothing else, and a signed row's stamp never leaves the time
// its content was signed at.

// sharedPeerRow returns updates of one third-party row at two issue times
// that carry the same shared content pointer — what two agents of one
// simulation hold after a peer re-stamped the row.
func sharedPeerRow(at, later time.Time) (old, fresh wire.RowUpdate) {
	row := &wire.SharedRow{
		Name:  "peer",
		Attrs: value.Map{AttrAddr: value.String("n9"), AttrLoad: value.Float(0)},
		Owner: "n9",
	}
	return row.Update("/z", at), row.Update("/z", later)
}

func contentOf(a *Agent, zone, name string) *wire.SharedRow {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, _ := a.tableLocked(zone).get(name)
	return r.SharedRow
}

// setDirty overwrites a table's content-changed flag and returns what it
// held.
func setDirty(a *Agent, zone string, dirty bool) (was bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	was, a.tableLocked(zone).dirty = a.tableLocked(zone).dirty, dirty
	return was
}

// TestRestampIsAStampMove: the same content pointer at a newer stamp
// merges as a timestamp-only refresh — counted in RowsMerged as a row
// delivery always was, never dirtying the zone — an older or equal stamp
// is ignored, and the move stays local to the replica that merged it.
func TestRestampIsAStampMove(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z"}, nil)
	a, b := c.agents[0], c.agents[1]
	t0 := c.eng.Now()
	t1 := t0.Add(3 * time.Second)
	old, fresh := sharedPeerRow(t0, t1)
	a.MergeRows([]wire.RowUpdate{old})
	b.MergeRows([]wire.RowUpdate{old})
	if contentOf(a, "/z", "peer") != old.Shared() || contentOf(b, "/z", "peer") != old.Shared() {
		t.Fatal("merging a shared update did not install its content pointer")
	}

	setDirty(b, "/z", false)
	before := b.Stats()
	b.MergeRows([]wire.RowUpdate{fresh})
	after := b.Stats()
	if got := after.RowsMerged - before.RowsMerged; got != 1 {
		t.Fatalf("newer stamp on the stored content merged %d rows, want 1", got)
	}
	if setDirty(b, "/z", false) || after.AggEvals != before.AggEvals {
		t.Fatalf("a stamp move dirtied the zone (%d aggregation evals)", after.AggEvals-before.AggEvals)
	}
	if contentOf(b, "/z", "peer") != old.Shared() {
		t.Fatal("a stamp move replaced the shared content")
	}
	if row, _ := b.Row("/z", "peer"); !row.Issued.Equal(t1) {
		t.Fatalf("stamp = %v after the move, want %v", row.Issued, t1)
	}
	if row, _ := a.Row("/z", "peer"); !row.Issued.Equal(t0) {
		t.Fatalf("a replica's stamp moved with another's: %v, want %v", row.Issued, t0)
	}

	// Re-delivery at the stored stamp, and the older stamp, change nothing.
	b.MergeRows([]wire.RowUpdate{fresh, old})
	if got := b.Stats().RowsMerged; got != after.RowsMerged {
		t.Fatalf("equal/older stamps merged %d rows, want 0", got-after.RowsMerged)
	}
	if row, _ := b.Row("/z", "peer"); !row.Issued.Equal(t1) {
		t.Fatalf("an older stamp moved the row back to %v", row.Issued)
	}

	// What b now says about the row carries the new stamp.
	b.mu.Lock()
	section := b.sectionLocked(1, nil, true)
	rows := b.sharedRowsLocked(len(b.chain))
	b.mu.Unlock()
	for i, r := range section.Named {
		if at := section.Newest.Add(-section.Lags[i]); r.Name == "peer" && !at.Equal(t1) {
			t.Fatalf("section carries stamp %v, want %v", at, t1)
		}
	}
	for i := range rows {
		if u := &rows[i]; u.Zone == "/z" && u.Name == "peer" && (!u.Issued.Equal(t1) || u.Shared() != old.Shared()) {
			t.Fatalf("update carries stamp %v / content %p, want %v / %p", u.Issued, u.Shared(), t1, old.Shared())
		}
	}
}

// TestHeartbeatMovesStampUnlessSigned: an unsigned agent's Tick keeps its
// own row's content and moves the stamp; a signing agent builds a new row
// whose signature covers the new issue time, and no path ever moves a
// signed row's stamp.
func TestHeartbeatMovesStampUnlessSigned(t *testing.T) {
	plain := newTestCluster(t, []string{"/z"}, nil)
	a := plain.agents[0]
	content := contentOf(a, "/z", a.Name())
	plain.eng.Clock().Advance(time.Second)
	a.Tick()
	if contentOf(a, "/z", a.Name()) != content {
		t.Fatal("unsigned heartbeat rebuilt the row instead of moving its stamp")
	}
	if row, _ := a.Row("/z", a.Name()); !row.Issued.Equal(plain.eng.Now()) {
		t.Fatalf("heartbeat left the stamp at %v, want %v", row.Issued, plain.eng.Now())
	}

	verify := func(r *wire.RowUpdate) error {
		if want := append([]byte("sig:"), r.SignedPayload()...); !bytes.Equal(r.Sig, want) {
			return fmt.Errorf("signature does not cover %s/%s at %v", r.Zone, r.Name, r.Issued)
		}
		return nil
	}
	signed := newTestCluster(t, []string{"/z", "/z"}, func(i int, cfg *Config) {
		cfg.SignRow = func(r *wire.RowUpdate) {
			r.Signer, r.Sig = "ca", append([]byte("sig:"), r.SignedPayload()...)
		}
		cfg.VerifyRow = verify
	})
	s, peer := signed.agents[0], signed.agents[1]
	content = contentOf(s, "/z", s.Name())
	signed.eng.Clock().Advance(time.Second)
	s.Tick()
	if contentOf(s, "/z", s.Name()) == content {
		t.Fatal("signed heartbeat moved the stamp of a row signed at another time")
	}
	for _, u := range s.ChainRowUpdates() {
		if err := verify(&u); err != nil {
			t.Fatalf("after a heartbeat: %v", err)
		}
	}

	// The peer holds s's row as signed a second ago. Neither a stamp nor a
	// digest proving equal bytes may move it: only the newly signed row.
	held, _ := peer.Row("/z", s.Name())
	own := s.OwnRowUpdate()
	hash := own.AsShared().AttrsHash()
	peer.mu.Lock()
	i, _ := peer.tableLocked("/z").find(s.Name())
	pos := uint32(i)
	peer.applyStampsLocked([]wire.ZoneStamps{{
		Depth: 1, Hash: peer.tableLocked("/z").hash, Newest: own.Issued, Rows: []wire.RowStamp{{Pos: pos}},
	}})
	peer.mu.Unlock()
	want := diffSections(peer, "/z", namedSection(1, digestRow{name: s.Name(), issued: own.Issued, hash: hash})).want
	if now, _ := peer.Row("/z", s.Name()); !now.Issued.Equal(held.Issued) {
		t.Fatalf("signed row re-stamped from %v to %v", held.Issued, now.Issued)
	}
	if len(want) != 1 || want[0].Name != s.Name() {
		t.Fatalf("fresher signed digest must be wanted whole, got %+v", want)
	}
	peer.MergeRows([]wire.RowUpdate{own})
	if now, _ := peer.Row("/z", s.Name()); !now.Issued.Equal(own.Issued) {
		t.Fatalf("newly signed row did not merge: stamp %v, want %v", now.Issued, own.Issued)
	}
	if st := peer.Stats(); st.StampsApplied != 0 || st.RowsRejected != 0 {
		t.Fatalf("signed cluster applied %d stamps, rejected %d rows", st.StampsApplied, st.RowsRejected)
	}
}

// TestSharedRowConcurrentRestamps runs two agents that hold one SharedRow
// through stamp moves at the same time — each under its own lock, as the
// parallel executor does — while a third goroutine reads the shared
// content. Meaningful under -race: the stamps are per replica and the
// content is never written, so there is nothing to race on.
func TestSharedRowConcurrentRestamps(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z"}, nil)
	t0 := c.eng.Now()
	old, _ := sharedPeerRow(t0, t0)
	shared := old.Shared()
	hash := shared.AttrsHash()
	for _, a := range c.agents {
		a.MergeRows([]wire.RowUpdate{old})
	}
	// Both leaf tables are node-0, node-1, peer.
	const peerPos = 2
	const moves = 500
	var wg sync.WaitGroup
	for _, a := range c.agents {
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			for i := 1; i <= moves; i++ {
				at := t0.Add(time.Duration(i) * time.Minute)
				switch i % 3 {
				case 0: // a peer's stamp
					a.mu.Lock()
					echo := a.tableLocked("/z").hash
					a.mu.Unlock()
					a.HandleMessage(&wire.Message{Kind: wire.KindGossipDelta, GossipDelta: &wire.GossipDelta{
						FromZone: "/z", Stamps: []wire.ZoneStamps{{
							Depth: 1, Hash: echo, Newest: at, Rows: []wire.RowStamp{{Pos: peerPos}},
						}},
					}})
				case 1: // a section proving the peer holds the same bytes, fresher
					a.mu.Lock()
					var out delta
					s := namedSection(1, digestRow{name: "peer", issued: at, hash: hash})
					a.diffSectionLocked(&out, &s)
					a.mu.Unlock()
				default: // the row itself, re-delivered at a newer stamp
					a.MergeRows([]wire.RowUpdate{shared.Update("/z", at)})
				}
				if row, _ := a.Row("/z", "peer"); !row.Issued.Equal(at) {
					t.Errorf("move %d: stamp %v, want %v", i, row.Issued, at)
					return
				}
			}
		}(a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < moves; i++ {
			_, _, _ = shared.Encoding(), shared.AttrsHash(), shared.WireAttrsSize()
		}
	}()
	wg.Wait()
	for _, a := range c.agents {
		if contentOf(a, "/z", "peer") != shared {
			t.Fatal("a stamp move replaced the shared content")
		}
	}
}

// TestDigestDiffExactUnderRepeatedNames: the diff walks a named section
// against the table's own rows in name order and pushes every row of ours the
// section passes over. A section that names one row twice in place of
// another (the decoder refuses it; an in-process sender could build it)
// must not hide the row it left out — that row still has to be pushed.
func TestDigestDiffExactUnderRepeatedNames(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z", "/z"}, nil)
	a := c.agents[0]
	a.mu.Lock()
	full := a.sectionLocked(1, nil, true)
	a.mu.Unlock()
	if out := diffSections(a, "/z", full); len(out.rows) != 0 || len(out.want) != 0 {
		t.Fatalf("own section diffed to %d rows, %d wants", len(out.rows), len(out.want))
	}
	// Replace node-2's entry by a second copy of node-1's: same length.
	hostile := full
	hostile.Named = slices.Clone(full.Named)
	for i, r := range hostile.Named {
		if r.Name == "node-2" {
			hostile.Named[i] = hostile.Named[i-1]
		}
	}
	out := diffSections(a, "/z", hostile)
	if len(out.rows) != 1 || out.rows[0].Name != "node-2" {
		t.Fatalf("section repeating a name hid the row it omitted: pushed %+v", out.rows)
	}
}

// captureTransport hands an agent's sends to a function, so two agents can
// run a gossip exchange synchronously with no simulator in between.
type captureTransport struct {
	addr string
	send func(to string, m *wire.Message)
}

func (c *captureTransport) Addr() string { return c.addr }
func (c *captureTransport) Close() error { return nil }
func (c *captureTransport) Send(to string, m *wire.Message) error {
	m.From = c.addr
	c.send(to, m)
	return nil
}

// TestHeartbeatPathsAllocateNothing is the allocation contract of the row
// model. Between converged agents whose rows differ only in stamps,
// applying a peer's stamps and re-stamping from a digest allocate no
// objects. A whole digest→delta exchange is held to its slabs by
// TestGossipExchangeAllocationBudget.
func TestHeartbeatPathsAllocateNothing(t *testing.T) {
	zones := []string{"/r/a", "/r/a", "/r/a", "/r/b", "/r/b"}
	c := newTestCluster(t, zones, nil)
	c.runRounds(12)
	a := c.agents[0]

	// The digest of a's own state, pushed an hour ahead per run: every row
	// but a's own is the very bytes a holds, fresher, past any lag.
	a.mu.Lock()
	digest := a.digestLocked(len(a.chain)).GossipDigest
	stamps := make([]wire.ZoneStamps, len(digest.Sections))
	movable := -1 // a's own row never moves
	for i, s := range digest.Sections {
		stamps[i] = wire.ZoneStamps{Depth: s.Depth, Hash: s.Hash, Newest: s.Newest}
		for pos, lag := range s.Lags {
			stamps[i].Rows = append(stamps[i].Rows, wire.RowStamp{Pos: uint32(pos), Lag: lag})
			movable++
		}
	}
	a.mu.Unlock()
	leaf := &digest.Sections[len(digest.Sections)-1]
	own, _ := a.tableLocked(a.leaf).find(a.name)
	advance := func() {
		for i := range stamps {
			stamps[i].Newest = stamps[i].Newest.Add(time.Hour)
			digest.Sections[i].Newest = stamps[i].Newest
		}
		leaf.Lags[own] += time.Hour // a's own row stays where a issued it
	}
	if movable < 5 {
		t.Fatalf("only %d movable rows; the cluster did not converge", movable)
	}

	const runs = 50
	before := a.Stats().StampsApplied
	if n := testing.AllocsPerRun(runs, func() {
		advance()
		a.mu.Lock()
		a.applyStampsLocked(stamps)
		a.mu.Unlock()
	}); n != 0 {
		t.Errorf("applyStampsLocked allocates %v objects per call, want 0", n)
	}
	if got, want := a.Stats().StampsApplied-before, int64((runs+1)*movable); got != want {
		t.Fatalf("applyStampsLocked moved %d stamps, want %d: the measured path did not run", got, want)
	}

	before = a.Stats().StampsApplied
	if n := testing.AllocsPerRun(runs, func() {
		advance()
		out := diffSections(a, a.leaf, digest.Sections...)
		if len(out.rows)+len(out.want)+len(out.stamps)+len(out.sections) != 0 {
			t.Fatalf("re-stamp diff produced %d rows, %d wants, %d stamps, %d sections",
				len(out.rows), len(out.want), len(out.stamps), len(out.sections))
		}
	}); n != 0 {
		t.Errorf("the diff's re-stamp branch allocates %v objects per call, want 0", n)
	}
	if got, want := a.Stats().StampsApplied-before, int64((runs+1)*movable); got != want {
		t.Fatalf("the diff moved %d stamps, want %d: the measured path did not run", got, want)
	}
}
