// Package nondeterministic breaks rule 1 once on every line marked want.
package nondeterministic

import (
	mathRand "math/rand" // want "imports math/rand"
	"time"
)

var seed = mathRand.Int63() // want "nondeterministic: rand.Int63 draws from the global source"

type transport struct{}

func (transport) Send(to string, msg []byte) {}

type node struct {
	transport // Send is promoted
	After     func(d time.Duration, fn func())
	rng       *mathRand.Rand
}

func (n *node) gossip(peers map[string]bool) {
	_ = mathRand.Intn(3)        // want "\(\*node\).gossip: rand.Intn draws from the global source"
	shuffle := mathRand.Shuffle // want "rand.Shuffle draws from the global source"
	_ = shuffle
	start := time.Now()            // want "time.Now reads the wall clock"
	_ = time.Since(start)          // want "time.Since reads the wall clock"
	time.AfterFunc(0, func() {})   // want "time.AfterFunc reads the wall clock"
	_ = time.NewTimer(time.Second) // want "time.NewTimer reads the wall clock"
	for p := range peers {
		n.Send(p, nil)                  // want "range over a map calls Send in random order"
		_ = n.rng.Intn(2)               // want "range over a map calls \(\*rand.Rand\).Intn"
		n.After(time.Second, func() {}) // want "range over a map calls After"
	}
}
