package transport

import (
	"sync/atomic"
	"time"

	"newswire/internal/wire"
)

// defaultClockSyncInterval is the period between clock-offset probes to
// each connected peer. The first probe fires at connection establishment,
// so a fresh cluster has usable offsets within one round trip.
const defaultClockSyncInterval = 30 * time.Second

// clockSampleTTL is how many probe intervals a kept lowest-RTT sample
// outranks slower ones before any newer sample replaces it.
const clockSampleTTL = 4

// maxClockRTT discards offset samples whose round trip was too slow to
// trust: a 5-second RTT puts ±2.5s of asymmetry noise on the estimate,
// worse than no correction at all.
const maxClockRTT = 5 * time.Second

// ClockOffset is one peer's estimated clock offset relative to this
// process: positive means the peer's wall clock runs ahead of ours. A
// remote timestamp t maps onto the local clock as t − Offset.
type ClockOffset struct {
	Offset time.Duration `json:"offset"`
	RTT    time.Duration `json:"rtt"`
	At     time.Time     `json:"at"` // local time the estimate was made
}

// estimateOffset computes the NTP-style offset of a peer's clock from one
// ping/pong exchange: t1 is the initiator's transmit time, t2 the
// responder's clock at receipt, t3 the initiator's receive time (all as
// observed by their respective clocks). The estimate is exact when the
// network path is symmetric; asymmetry contributes at most rtt/2 error.
func estimateOffset(t1, t2, t3 time.Time) (offset, rtt time.Duration) {
	rtt = t3.Sub(t1)
	offset = t2.Sub(t1) - rtt/2
	return offset, rtt
}

// clockSeq numbers outgoing pings so stale pongs are recognizable.
var clockSeq atomic.Uint64

// sendClockPing probes to's clock through the normal send path. The
// transmit stamp is taken at enqueue, so queueing delay lands in the RTT
// (splitting evenly across both directions, as the estimator assumes).
func (t *TCP) sendClockPing(to string) {
	_ = t.Send(to, &wire.Message{
		Kind: wire.KindClockPing,
		ClockSync: &wire.ClockSync{
			Seq: clockSeq.Add(1),
			T1:  time.Now().UnixNano(),
		},
	})
}

// clockLoop refreshes every connected peer's offset estimate each
// interval, so drifting clocks do not fossilize a connect-time estimate.
func (t *TCP) clockLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.opts.ClockSyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		t.mu.Lock()
		addrs := make([]string, 0, len(t.peers))
		for addr := range t.peers {
			addrs = append(addrs, addr)
		}
		t.mu.Unlock()
		for _, addr := range addrs {
			t.sendClockPing(addr)
		}
	}
}

// handleClockPing answers a peer's probe with our clock reading. Called
// from readLoop; the reply rides the normal outbound queue.
func (t *TCP) handleClockPing(from string, cs *wire.ClockSync) {
	if from == "" {
		return
	}
	reply := *cs
	reply.T2 = time.Now().UnixNano()
	_ = t.Send(from, &wire.Message{Kind: wire.KindClockPong, ClockSync: &reply})
}

// handleClockPong folds a probe reply into the peer's offset estimate,
// discarding samples whose round trip is too noisy to improve it. The
// estimate keeps the lowest-RTT sample (the NTP rule: less time in
// flight, less room for asymmetry error); a sample older than
// clockSampleTTL intervals is replaced by the next one, so drift is
// still tracked.
func (t *TCP) handleClockPong(from string, cs *wire.ClockSync, now time.Time) {
	if from == "" || cs.T1 == 0 || cs.T2 == 0 {
		return
	}
	offset, rtt := estimateOffset(time.Unix(0, cs.T1), time.Unix(0, cs.T2), now)
	if rtt < 0 || rtt > maxClockRTT {
		return
	}
	t.clockMu.Lock()
	if t.clockOffsets == nil {
		t.clockOffsets = make(map[string]ClockOffset)
	}
	old, ok := t.clockOffsets[from]
	if !ok || rtt <= old.RTT || now.Sub(old.At) > clockSampleTTL*t.opts.ClockSyncInterval {
		t.clockOffsets[from] = ClockOffset{Offset: offset, RTT: rtt, At: now}
	}
	t.clockMu.Unlock()
}

// ClockOffsets returns a snapshot of the per-peer clock-offset estimates,
// keyed by peer listen address.
func (t *TCP) ClockOffsets() map[string]ClockOffset {
	t.clockMu.Lock()
	defer t.clockMu.Unlock()
	out := make(map[string]ClockOffset, len(t.clockOffsets))
	for addr, e := range t.clockOffsets {
		out[addr] = e
	}
	return out
}

// ClockOffset returns the current offset estimate for one peer.
func (t *TCP) ClockOffset(addr string) (ClockOffset, bool) {
	t.clockMu.Lock()
	defer t.clockMu.Unlock()
	e, ok := t.clockOffsets[addr]
	return e, ok
}
