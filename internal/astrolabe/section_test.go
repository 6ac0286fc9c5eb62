package astrolabe

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"newswire/internal/value"
	"newswire/internal/wire"
)

// checkTables recomputes every table's sorted names, content hash and
// newest stamp from its rows and fails if the maintained ones have drifted.
func checkTables(t *testing.T, a *Agent) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for zone, tbl := range a.tables {
		var names []string
		var hash uint64
		for name, r := range tbl.rows {
			if name != r.Name {
				t.Fatalf("%s %s: row %q stored under %q", a.name, zone, r.Name, name)
			}
			names = append(names, name)
			hash += rowHash(name, r.AttrsHash())
		}
		slices.Sort(names)
		if !slices.Equal(names, tbl.names) {
			t.Fatalf("%s %s: names %v, rows hold %v", a.name, zone, tbl.names, names)
		}
		if hash != tbl.hash {
			t.Fatalf("%s %s: content hash %x, rows hash to %x", a.name, zone, tbl.hash, hash)
		}
		if got, want := tbl.newest(), scanNewest(tbl); !got.Equal(want) {
			t.Fatalf("%s %s: newest %v, rows say %v", a.name, zone, got, want)
		}
	}
}

func zoneHash(a *Agent, zone string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tables[zone].hash
}

// TestZoneHash: a table's content hash is a function of its (name, attrs)
// set alone. It is equal however the rows arrived, moves with every change
// to that set, and stays put when only stamps or signatures move.
func TestZoneHash(t *testing.T) {
	rows := make([]wire.RowUpdate, 12)
	at := time.Unix(1017619200, 0).UTC()
	for i := range rows {
		rows[i] = wire.RowUpdate{
			Zone: "/z", Name: fmt.Sprintf("peer-%d", i), Issued: at, Owner: fmt.Sprintf("p%d", i),
			Attrs: value.Map{AttrAddr: value.String(fmt.Sprintf("p%d", i)), AttrLoad: value.Float(float64(i))},
		}
	}
	build := func(order []int) *Agent {
		a := newStrangerCluster(t, []string{"/z"}, nil).agents[0]
		for _, i := range order {
			a.MergeRows(rows[i : i+1])
		}
		checkTables(t, a)
		return a
	}
	order := rand.New(rand.NewSource(7)).Perm(len(rows))
	inOrder := slices.Clone(order)
	slices.Sort(inOrder)
	a, b := build(order), build(inOrder)
	base := zoneHash(a, "/z")
	if got := zoneHash(b, "/z"); got != base {
		t.Fatalf("insertion order changed the hash: %x vs %x", got, base)
	}

	// Every change to the (name, attrs) set moves the hash, and undoing it
	// moves it back.
	seen := map[uint64]string{base: "the base table"}
	changed := func(what string) {
		t.Helper()
		checkTables(t, a)
		got := zoneHash(a, "/z")
		if prev, dup := seen[got]; dup {
			t.Fatalf("%s left the hash where %s put it (%x)", what, prev, got)
		}
		seen[got] = what
	}
	extra := wire.RowUpdate{Zone: "/z", Name: "peer-new", Issued: at, Attrs: value.Map{AttrAddr: value.String("pn")}}
	a.MergeRows([]wire.RowUpdate{extra})
	changed("adding a row")
	a.mu.Lock()
	a.tables["/z"].del("peer-new")
	a.mu.Unlock()
	if got := zoneHash(a, "/z"); got != base {
		t.Fatalf("removing the added row did not restore the hash: %x vs %x", got, base)
	}
	// Expiry: a row older than the leaf timeout goes at the next Tick.
	stale := rows[3]
	stale.Name, stale.Issued = "peer-stale", a.cfg.Clock.Now().Add(-time.Hour)
	a.MergeRows([]wire.RowUpdate{stale})
	changed("adding a stale row")
	a.Tick()
	if got, _ := a.Row("/z", "peer-stale"); got.Name != "" {
		t.Fatal("stale row survived a Tick")
	}
	if got := zoneHash(a, "/z"); got != base {
		t.Fatalf("expiry did not restore the hash: %x vs %x", got, base)
	}
	// Rename: the same attributes under another name.
	a.mu.Lock()
	tbl := a.tables["/z"]
	old := tbl.rows["peer-4"]
	tbl.del("peer-4")
	tbl.put(newEntry(&wire.SharedRow{Name: "peer-four", Attrs: old.Attrs, Owner: old.Owner}, at))
	a.mu.Unlock()
	changed("renaming a row")
	// Attribute change.
	fresher := rows[5]
	fresher.Issued = at.Add(time.Second)
	fresher.Attrs = value.Map{AttrAddr: value.String("p5"), AttrLoad: value.Float(0.5)}
	a.MergeRows([]wire.RowUpdate{fresher})
	changed("changing an attribute")
	if n := a.ScrambleRows(rand.New(rand.NewSource(3)), 0.5); n == 0 {
		t.Fatal("nothing scrambled")
	}
	changed("scrambling rows")

	// Stamps and signatures are not content.
	before := zoneHash(b, "/z")
	later := rows[2]
	later.Issued = at.Add(time.Minute)
	b.MergeRows([]wire.RowUpdate{later}) // the same attributes, re-delivered fresher
	b.mu.Lock()
	tb := b.tables["/z"]
	b.restampLocked(tb, tb.rows["peer-7"], at.Add(time.Hour))
	b.mu.Unlock()
	b.Tick() // the unsigned heartbeat on its own row
	checkTables(t, b)
	if got := zoneHash(b, "/z"); got != before {
		t.Fatalf("re-stamping changed the hash: %x vs %x", got, before)
	}
	signed := newStrangerCluster(t, []string{"/z"}, func(_ int, cfg *Config) {
		cfg.SignRow = func(r *wire.RowUpdate) {
			r.Signer, r.Sig = "ca", append([]byte("sig:"), r.SignedPayload()...)
		}
	})
	s := signed.agents[0]
	before, content := zoneHash(s, "/z"), contentOf(s, "/z", s.Name())
	signed.eng.Clock().Advance(time.Second)
	s.Tick()
	if contentOf(s, "/z", s.Name()) == content {
		t.Fatal("the signed heartbeat did not build a new row")
	}
	checkTables(t, s)
	if got := zoneHash(s, "/z"); got != before {
		t.Fatalf("a signed re-issue with equal attributes changed the hash: %x vs %x", got, before)
	}
}

// TestTablesStayConsistentUnderChurn runs a cluster through a crash, the
// expiry that follows it and a scramble, checking after every round that
// each table's maintained names and hash equal what its rows say.
func TestTablesStayConsistentUnderChurn(t *testing.T) {
	c := newTestCluster(t, convergenceZones, nil)
	rng := rand.New(rand.NewSource(11))
	expired := int64(0)
	for round := 0; round < 30; round++ {
		switch round {
		case 5:
			c.net.Crash(c.agents[7].Addr())
		case 8:
			if c.agents[9].ScrambleRows(rng, 0.5) == 0 {
				t.Fatal("nothing scrambled")
			}
		}
		c.runRounds(1)
		for _, a := range c.agents {
			checkTables(t, a)
		}
	}
	for _, a := range c.agents {
		expired += a.Stats().RowsExpired
	}
	if expired == 0 {
		t.Fatal("no row expired: the schedule did not reach del")
	}
}

// TestBareAndNamedSectionsDiffAlike is the differential test of the two
// ways a section can be read. For random tables and random peers that hold
// the same content at other stamps, the bare section (names and hashes read
// from the receiver's own table by position) and the same section with
// names and hashes attached must produce the same rows, wants and stamps,
// and leave the same local re-stamps behind.
func TestBareAndNamedSectionsDiffAlike(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two copies of one agent: the diff re-stamps rows as it goes.
		c := newStrangerCluster(t, []string{"/r/z"}, nil)
		byBare, byName := c.agents[0], newStrangerCluster(t, []string{"/r/z"}, nil).agents[0]
		now := c.eng.Now()

		// The same random rows into both: members of the leaf zone and
		// sibling zones beside its aggregate, some signed, at stamps around
		// now.
		var rows []wire.RowUpdate
		for _, zone := range []string{"/r", "/r/z"} {
			for i, n := 0, 2+rng.Intn(18); i < n; i++ {
				u := wire.RowUpdate{
					Zone: zone, Name: fmt.Sprintf("row-%d", rng.Intn(1000)),
					Issued: now.Add(time.Duration(rng.Int63n(int64(20*time.Second))) - 10*time.Second),
					Attrs:  value.Map{AttrAddr: value.String(fmt.Sprintf("a%d", i)), "x": value.Int(rng.Int63n(5))},
				}
				if rng.Intn(4) == 0 {
					u.Signer, u.Sig = "ca", []byte{1, 2, 3}
				}
				rows = append(rows, u)
			}
		}
		for _, a := range []*Agent{byBare, byName} {
			a.mu.Lock()
			for _, u := range rows {
				u := u
				u.Attrs = u.Attrs.Clone()
				a.tables[u.Zone].put(newEntry(u.AsShared(), u.Issued))
			}
			a.mu.Unlock()
			checkTables(t, a)
		}

		// A peer with the same content whose stamps differ row by row: equal,
		// a little or a lot fresher, a little or a lot staler.
		var bare, named []wire.ZoneSection
		byBare.mu.Lock()
		for depth := 1; depth <= 2; depth++ {
			tbl := byBare.tables[byBare.chain[depth]]
			s := wire.ZoneSection{Depth: depth, Hash: tbl.hash}
			issued := make([]time.Time, len(tbl.names))
			for i, name := range tbl.names {
				shift := []time.Duration{0, time.Millisecond, -time.Millisecond, time.Minute, -time.Minute}[rng.Intn(5)]
				issued[i] = tbl.rows[name].stamp().Add(shift)
				if issued[i].After(s.Newest) {
					s.Newest = issued[i]
				}
			}
			for _, at := range issued {
				s.Lags = append(s.Lags, s.Newest.Sub(at))
			}
			bare = append(bare, s)
			for _, name := range tbl.names {
				s.Named = append(s.Named, wire.RowSummary{Name: name, Hash: tbl.rows[name].AttrsHash()})
			}
			named = append(named, s)
		}
		byBare.mu.Unlock()

		type sent struct {
			zone, name string
			issued     time.Time
		}
		project := func(a *Agent, out delta) (rows []sent, want []wire.RowRef, stamps []wire.ZoneStamps, held map[string]time.Time) {
			for _, u := range out.rows {
				rows = append(rows, sent{u.Zone, u.Name, u.Issued})
			}
			held = map[string]time.Time{}
			a.mu.Lock()
			for zone, tbl := range a.tables {
				for name, r := range tbl.rows {
					held[zone+"|"+name] = r.stamp()
				}
			}
			a.mu.Unlock()
			return rows, out.want, out.stamps, held
		}
		outBare, outNamed := diffSections(byBare, "/r/z", bare...), diffSections(byName, "/r/z", named...)
		if len(outBare.sections)+len(outNamed.sections) != 0 {
			t.Fatalf("seed %d: a section of the table's own content went unread", seed)
		}
		r1, w1, s1, h1 := project(byBare, outBare)
		r2, w2, s2, h2 := project(byName, outNamed)
		if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(s1, s2) {
			t.Fatalf("seed %d: bare and named sections diffed apart:\n rows   %v\n        %v\n want   %v\n        %v\n stamps %v\n        %v",
				seed, r1, r2, w1, w2, s1, s2)
		}
		if !reflect.DeepEqual(h1, h2) {
			t.Fatalf("seed %d: bare and named sections left different local stamps", seed)
		}
		if len(r1)+len(w1)+len(s1) == 0 || byBare.Stats().StampsApplied == 0 {
			t.Fatalf("seed %d: nothing to compare (%d rows, %d wants, %d stamps, %d re-stamps)",
				seed, len(r1), len(w1), len(s1), byBare.Stats().StampsApplied)
		}
		if byBare.Stats().StampsApplied != byName.Stats().StampsApplied {
			t.Fatalf("seed %d: %d local re-stamps by position, %d by name",
				seed, byBare.Stats().StampsApplied, byName.Stats().StampsApplied)
		}
	}
}
