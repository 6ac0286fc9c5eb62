package astrolabe

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"newswire/internal/value"
	"newswire/internal/wire"
)

// sentMessage is a gossip message as a transport received it, with the
// bytes it encoded to at that moment.
type sentMessage struct {
	msg *wire.Message
	enc []byte
}

func encodeNow(t *testing.T, m *wire.Message) []byte {
	t.Helper()
	f, err := wire.NewFrame(m, m.From)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(f.Bytes())
}

// checkUnchanged re-encodes every kept message and fails on any whose
// bytes moved since it was sent.
func checkUnchanged(t *testing.T, kept []sentMessage) {
	t.Helper()
	kinds := map[wire.Kind]int{}
	for i, s := range kept {
		kinds[s.msg.Kind]++
		if got := encodeNow(t, s.msg); !bytes.Equal(got, s.enc) {
			t.Fatalf("sent message %d (%s) changed after Send: %d bytes then, %d now", i, s.msg.Kind, len(s.enc), len(got))
		}
	}
	if kinds[wire.KindGossipDigest] == 0 || kinds[wire.KindGossipDelta] == 0 {
		t.Fatalf("captured %v: want digests and deltas both", kinds)
	}
}

// TestSentGossipNeverChanges is the ownership rule of gossip messages
// (DESIGN §8): nothing a sent message references is written again. The
// simulator delivers a message by pointer after its sender has moved on,
// so a buffer reused by a later exchange would change what is delivered.
// The messages of the first rounds are encoded as the transport receives
// them, enough rounds to fill every slab run through the same agents (and
// their rows change: the third agent falls silent and expires, and the
// first changes an attribute), and the kept messages must still encode to
// the same bytes.
func TestSentGossipNeverChanges(t *testing.T) {
	c := newTestCluster(t, []string{"/r/a", "/r/a", "/r/b"}, nil)
	c.runRounds(12)
	a, b := c.agents[0], c.agents[1]
	var kept []sentMessage
	capture := true
	byAddr := map[string]*Agent{a.addr: a, b.addr: b}
	for _, ag := range byAddr {
		ag.cfg.Transport = &captureTransport{addr: ag.addr, send: func(to string, m *wire.Message) {
			if capture {
				kept = append(kept, sentMessage{m, encodeNow(t, m)})
			}
			if peer := byAddr[to]; peer != nil {
				peer.HandleMessage(m)
			}
		}}
	}
	clock := c.eng.Clock()
	for round := 0; round < 603; round++ {
		capture = round < 3
		clock.Advance(time.Second)
		a.Tick()
		b.Tick()
		if round == 20 {
			a.SetAttr("mark", value.Int(1)) // a content change mid-run
		}
	}
	checkUnchanged(t, kept)
}

// TestSentGossipNeverChangesConcurrently runs two agents' rounds from two
// goroutines, each delivering synchronously to the other, and holds every
// message sent to the same rule. Under -race it is the aliasing check:
// a region handed to two messages would be written by one goroutine while
// the other encodes it.
func TestSentGossipNeverChangesConcurrently(t *testing.T) {
	c := newTestCluster(t, []string{"/r/a", "/r/a", "/r/b"}, nil)
	c.runRounds(12)
	a, b := c.agents[0], c.agents[1]
	var mu sync.Mutex
	var kept []sentMessage
	byAddr := map[string]*Agent{a.addr: a, b.addr: b}
	for _, ag := range byAddr {
		ag.cfg.Transport = &captureTransport{addr: ag.addr, send: func(to string, m *wire.Message) {
			s := sentMessage{m, encodeNow(t, m)}
			mu.Lock()
			kept = append(kept, s)
			mu.Unlock()
			if peer := byAddr[to]; peer != nil {
				peer.HandleMessage(m)
			}
		}}
	}
	clock := c.eng.Clock()
	var wg sync.WaitGroup
	for i, ag := range []*Agent{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 300; round++ {
				// Short steps: one goroutine may run all its rounds before
				// the other starts, and neither row may expire meanwhile.
				clock.Advance(10 * time.Millisecond)
				ag.Tick()
				if round%10 == 0 {
					ag.SetAttr("mark", value.Int(int64(i*100+round)))
				}
			}
		}()
	}
	wg.Wait()
	checkUnchanged(t, kept)
}

// TestGossipExchangeAllocationBudget holds the gossip exchange between two
// converged agents to the slabs it is carved from: a digest and a delta
// reply carrying a stamp allocate no object of their own, so the amortized
// count per exchange rounds down to zero.
func TestGossipExchangeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account and makes sync.Pool drop Puts")
	}
	c := newTestCluster(t, []string{"/r/a", "/r/a", "/r/a", "/r/b", "/r/b"}, nil)
	c.runRounds(12)
	a, b := c.agents[0], c.agents[1]
	byAddr := map[string]*Agent{a.addr: a, b.addr: b}
	for _, ag := range byAddr {
		ag.cfg.Transport = &captureTransport{addr: ag.addr, send: func(to string, m *wire.Message) {
			byAddr[to].HandleMessage(m)
		}}
	}
	clock := c.eng.Clock()
	// One exchange: both agents heartbeat an hour on, b sends a its digest,
	// and a answers with a stamp for its own row, which b applies.
	exchange := func() {
		clock.Advance(time.Hour)
		for _, ag := range []*Agent{a, b} {
			ag.mu.Lock()
			ag.ownRow = ag.reissueLocked(ag.tableLocked(ag.leaf), ag.leaf, ag.ownRow, clock.Now())
			ag.mu.Unlock()
		}
		b.mu.Lock()
		m := b.digestLocked(len(b.chain))
		b.mu.Unlock()
		a.HandleMessage(m)
	}
	const runs = 200
	stamps := a.Stats().StampsSent
	if n := testing.AllocsPerRun(runs, exchange); n > 0 {
		t.Errorf("a digest→delta exchange allocates %v objects, want 0 amortized", n)
	}
	if got := a.Stats().StampsSent - stamps; got < runs {
		t.Fatalf("a sent %d stamps over %d exchanges: the replies carried none", got, runs+1)
	}
	if row, _ := b.Row(a.leaf, a.name); !row.Issued.Equal(clock.Now()) {
		t.Fatalf("the exchange did not carry a's heartbeat to b: stamp %v, want %v", row.Issued, clock.Now())
	}
}

// scanNewest is table.newest by a full scan of the rows.
func scanNewest(tbl *table) time.Time {
	var latest time.Time
	for _, r := range tbl.rows {
		if at := r.stamp(); at.After(latest) {
			latest = at
		}
	}
	return latest
}

// TestTableNewestTracksWrites drives every kind of table write — puts of
// new and changed rows, deletes (of the newest row too), re-stamps forward
// and back, heartbeats, expiry and scrambling — and checks the table's
// kept newest stamp against a full scan after every step. A stale value
// would move the Newest of every section and stamp list built from it.
func TestTableNewestTracksWrites(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCluster(t, []string{"/r/a", "/r/a", "/r/b"}, nil)
		c.runRounds(3)
		a := c.agents[0]
		clock := c.eng.Clock()
		base := clock.Now()
		last := ""
		defer func() {
			if t.Failed() {
				t.Logf("seed %d, last step: %s", seed, last)
			}
		}()
		check := func(step string) {
			t.Helper()
			last = step
			checkTables(t, a)
		}
		check("start")
		for step := 0; step < 200; step++ {
			zone := a.chain[rng.Intn(len(a.chain))]
			a.mu.Lock()
			tbl := a.tableLocked(zone)
			name := fmt.Sprintf("row-%d", rng.Intn(8))
			// The newest row, unless it is the agent's own (which only
			// heartbeats write).
			var newest entry
			hasNewest := len(tbl.rows) > 0
			if hasNewest {
				newest, _ = tbl.get(tbl.top.Name)
				hasNewest = zone != a.leaf || newest.Name != a.name
			}
			at := base.Add(time.Duration(rng.Intn(40)-20) * time.Second)
			var op string
			switch k := rng.Intn(7); {
			case k == 0:
				op = "put"
				u := wire.RowUpdate{Zone: zone, Name: name, Owner: "o", Issued: at,
					Attrs: value.Map{"x": value.Int(int64(rng.Intn(3)))}}
				tbl.put(newEntry(u.AsShared(), at))
			case k == 1:
				op = "del"
				if hasNewest && rng.Intn(2) == 0 {
					name = newest.Name
				}
				if i, ok := tbl.find(name); ok {
					tbl.del(i)
				}
			case k == 2:
				op = "restamp"
				if i, ok := tbl.find(name); ok {
					a.restampLocked(tbl, i, at) // forward or back
				}
			case k == 3:
				op = "restamp newest back"
				if hasNewest {
					i, _ := tbl.find(newest.Name)
					a.restampLocked(tbl, i, at.Add(-time.Minute))
				}
			case k == 4:
				op = "heartbeat"
				clock.Advance(time.Second)
				a.ownRow = a.reissueLocked(a.tableLocked(a.leaf), a.leaf, a.ownRow, clock.Now())
			case k == 5:
				op = "expire"
				a.expireLocked(base.Add(time.Duration(rng.Intn(30)) * time.Second))
			default:
				op = "tick"
				a.mu.Unlock()
				if rng.Intn(2) == 0 {
					a.ScrambleRows(rng, 0.5)
					op = "scramble"
				} else {
					a.Tick()
				}
				a.mu.Lock()
			}
			a.mu.Unlock()
			check(op)
		}
	}
}
