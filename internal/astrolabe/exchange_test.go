package astrolabe

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"newswire/internal/value"
	"newswire/internal/wire"
)

// TestExchangeLeavesBothSidesWithEveryWinner runs whole digest exchanges
// between two agents whose tables differ at random — rows one side lacks,
// rows with other content, rows that differ in stamp only — over a
// synchronous loss-free transport, and checks the anti-entropy contract:
// afterwards both hold, for every row either held, the copy the merge rule
// prefers (fresher stamp, then larger encoding), so their shared tables
// hash alike.
func TestExchangeLeavesBothSidesWithEveryWinner(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Zone-mates on even seeds (three shared tables), cousins on odd (two).
		c := newStrangerCluster(t, []string{"/r/x", []string{"/r/x", "/r/y"}[seed%2]}, nil)
		a, b := c.agents[0], c.agents[1]
		byAddr := map[string]*Agent{a.addr: a, b.addr: b}
		legs := 0
		for _, ag := range byAddr {
			ag := ag
			ag.cfg.Transport = &captureTransport{addr: ag.addr, send: func(to string, m *wire.Message) {
				legs++
				byAddr[to].HandleMessage(m)
			}}
		}
		now := c.eng.Now()
		shared := a.sharedTablesForTest(b.leaf)
		for depth := 0; depth < shared; depth++ {
			zone := a.chain[depth]
			for i, n := 0, 3+rng.Intn(12); i < n; i++ {
				name := fmt.Sprintf("row-%d", rng.Intn(20))
				for _, ag := range []*Agent{a, b} {
					if rng.Intn(5) == 0 {
						continue // this side lacks the row
					}
					u := wire.RowUpdate{
						Zone: zone, Name: name, Owner: "o",
						Issued: now.Add(-time.Duration(rng.Intn(4)) * 3 * time.Second),
						Attrs:  value.Map{AttrAddr: value.String("o"), "x": value.Int(int64(rng.Intn(2)))},
					}
					ag.mu.Lock()
					ag.tables[zone].put(newEntry(u.AsShared(), u.Issued))
					ag.mu.Unlock()
				}
			}
		}
		a.mu.Lock()
		m := a.digestLocked(shared)
		a.mu.Unlock()
		legs++
		b.HandleMessage(m)
		if legs > 4 {
			t.Fatalf("seed %d: exchange took %d messages", seed, legs)
		}
		for depth := 0; depth < shared; depth++ {
			zone := a.chain[depth]
			ra, _ := a.Table(zone)
			rb, _ := b.Table(zone)
			held := func(rows []Row) map[string]Row {
				m := map[string]Row{}
				for _, r := range rows {
					// Each agent's own rows and aggregates are its to issue.
					if r.Owner == "o" {
						m[r.Name] = r
					}
				}
				return m
			}
			ha, hb := held(ra), held(rb)
			if len(ha) != len(hb) {
				t.Fatalf("seed %d %s: %d rows at a, %d at b", seed, zone, len(ha), len(hb))
			}
			for name, x := range ha {
				y, ok := hb[name]
				if !ok || !x.Attrs.Equal(y.Attrs) {
					t.Fatalf("seed %d %s/%s: a holds %v@%v, b holds %v@%v", seed, zone, name, x.Attrs, x.Issued, y.Attrs, y.Issued)
				}
				if d := x.Issued.Sub(y.Issued); zone != a.leaf && d != 0 || d >= a.stampLag || -d >= a.stampLag {
					t.Fatalf("seed %d %s/%s: stamps %v and %v left apart", seed, zone, name, x.Issued, y.Issued)
				}
			}
		}
	}
}

func (a *Agent) sharedTablesForTest(fromZone string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sharedTablesLocked(fromZone)
}
