// Package deterministic keeps rule 1: a seeded source, an injected clock,
// and sends in sorted order.
package deterministic

import (
	"math/rand"
	"sort"
	"time"
)

type clock interface{ Now() time.Time }

type sender interface{ Send(to string, msg []byte) }

// Gossip sends to every peer not seen after the clock's now, in key order.
func Gossip(c clock, s sender, peers map[string]time.Time, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	now := c.Now()
	keys := make([]string, 0, len(peers))
	for p, seen := range peers {
		if seen.After(now) { // time.Time.After compares; it schedules nothing
			continue
		}
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, p := range keys {
		s.Send(p, nil)
	}
	time.Duration(rng.Intn(3)).String()
	return len(keys)
}
