package main

import (
	"testing"
	"time"

	"newswire"
)

// TestLiveSmoke runs the live harness end to end at toy size: four nodes
// in four zones on a port of their own, set-up with the readiness probe, a
// short closed loop and a one-second open loop. Every expected delivery
// must arrive exactly once.
func TestLiveSmoke(t *testing.T) {
	topo := topology{nodes: 4, members: 1, port: 17401}
	spec := liveSpec{name: "smoke", mode: newswire.ModeBloom, probes: publishers}
	const warm, open, rate = 64, 100, 100.0
	in, err := genFanout(1, topo.nodes, []int{spec.probes + warm, open})
	if err != nil {
		t.Fatal(err)
	}
	c, took, err := setupLive(spec, in, liveOptions{topo: topo, mode: spec.mode, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if min := settleRounds * gossipInterval; took < min {
		t.Errorf("set-up took %v, shorter than the settle time %v", took, min)
	}
	r := newLiveRun(c, in)
	ends, _, err := r.closedLoop(spec.probes, warm, warm/4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) != 4 {
		t.Errorf("closed loop reported %d windows, want 4", len(ends))
	}
	res, err := r.openLoop(spec.probes+warm, open, rate)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64((warm + open) * topo.nodes); r.total.ops != want {
		t.Errorf("ops = %d, want %d", r.total.ops, want)
	}
	if f := r.total.failed(); f != 0 {
		t.Errorf("%d failed ops: %+v", f, r.total)
	}
	if len(res.deliverMs) != open*topo.nodes || len(res.doneMs) != open {
		t.Errorf("open loop has %d delivery and %d completion samples, want %d and %d",
			len(res.deliverMs), len(res.doneMs), open*topo.nodes, open)
	}
	if sent := res.after.transport.BytesSent - res.before.transport.BytesSent; sent <= 0 {
		t.Errorf("open loop sent %d bytes", sent)
	}
	if span := res.after.at.Sub(res.before.at); span < time.Second {
		t.Errorf("open loop of %d items at %v/s lasted %v", open, rate, span)
	}
}
