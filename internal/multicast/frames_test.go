package multicast

import (
	"fmt"
	"math/rand"
	"testing"

	"newswire/internal/astrolabe"
	"newswire/internal/transport"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// frameView is a minimal static View: one leaf zone with this node and a
// few members, enough to drive the leaf fan-out path.
type frameView struct {
	zone    string
	name    string
	addr    string
	members map[string]string // row name -> transport addr
}

func (v *frameView) Addr() string     { return v.addr }
func (v *frameView) Name() string     { return v.name }
func (v *frameView) ZonePath() string { return v.zone }
func (v *frameView) Chain() []string  { return []string{astrolabe.RootZone, v.zone} }

func (v *frameView) Table(zone string) ([]astrolabe.Row, bool) {
	if zone != v.zone {
		return nil, false
	}
	rows := []astrolabe.Row{{Name: v.name, Attrs: value.Map{astrolabe.AttrAddr: value.String(v.addr)}}}
	for name, addr := range v.members {
		rows = append(rows, astrolabe.Row{Name: name, Attrs: value.Map{astrolabe.AttrAddr: value.String(addr)}})
	}
	return rows, true
}

func (v *frameView) Row(zone, name string) (astrolabe.Row, bool) {
	rows, ok := v.Table(zone)
	if !ok {
		return astrolabe.Row{}, false
	}
	for _, r := range rows {
		if r.Name == name {
			return r, true
		}
	}
	return astrolabe.Row{}, false
}

// frameTransport records the frame-path and message-path sends so tests
// can assert which one the router took and how often it encoded.
type frameTransport struct {
	addr      string
	newFrames int
	sent      []struct {
		addr  string
		frame wire.Frame
	}
	msgSends []string // addrs that went through plain Send
	ackSeqs  []uint64 // AckSeq of each multicast that went through plain Send
}

func (tr *frameTransport) Addr() string { return tr.addr }
func (tr *frameTransport) Close() error { return nil }

func (tr *frameTransport) Send(to string, msg *wire.Message) error {
	tr.msgSends = append(tr.msgSends, to)
	if msg.Multicast != nil {
		tr.ackSeqs = append(tr.ackSeqs, msg.Multicast.AckSeq)
	}
	return nil
}

func (tr *frameTransport) NewFrame(msg *wire.Message) (wire.Frame, error) {
	tr.newFrames++
	return wire.NewFrame(msg, tr.addr)
}

func (tr *frameTransport) SendFrame(to string, f wire.Frame) error {
	tr.sent = append(tr.sent, struct {
		addr  string
		frame wire.Frame
	}{to, f})
	return nil
}

var _ transport.FrameSender = (*frameTransport)(nil)

// frameHead returns where f's first buffer starts: two frames that share
// it are one frame.
func frameHead(f wire.Frame) *byte { return &f.AppendParts(nil)[0][0] }

func frameRouterConfig(v View, tr transport.Transport) Config {
	return Config{
		View:      v,
		Transport: tr,
		Rand:      rand.New(rand.NewSource(1)),
		Deliver:   func(*wire.ItemEnvelope) {},
	}
}

// TestLeafFanOutEncodesOnce checks the encode-once path: with a
// frame-capable transport and default fire-and-forget forwarding, a
// leaf-zone fan-out must serialize the deliver-copy exactly once and
// enqueue the same frame to every member.
func TestLeafFanOutEncodesOnce(t *testing.T) {
	v := &frameView{
		zone: "/z", name: "self", addr: "self:0",
		members: map[string]string{"m1": "m1:0", "m2": "m2:0", "m3": "m3:0", "m4": "m4:0"},
	}
	tr := &frameTransport{addr: "self:0"}
	r, err := NewRouter(frameRouterConfig(v, tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(envelope("it-1"), "/z"); err != nil {
		t.Fatal(err)
	}

	if tr.newFrames != 1 {
		t.Errorf("fan-out encoded %d times, want exactly once", tr.newFrames)
	}
	if len(tr.msgSends) != 0 {
		t.Errorf("fan-out used the per-recipient Send path for %v", tr.msgSends)
	}
	if len(tr.sent) != len(v.members) {
		t.Fatalf("sent %d frames, want one per member (%d)", len(tr.sent), len(v.members))
	}
	first := frameHead(tr.sent[0].frame)
	seen := map[string]bool{}
	for _, s := range tr.sent {
		seen[s.addr] = true
		// Same frame by reference, not a re-encoded copy.
		if frameHead(s.frame) != first {
			t.Errorf("frame to %s is a different allocation; fan-out should share one frame", s.addr)
		}
		msg, err := wire.Decode(s.frame.Payload())
		if err != nil {
			t.Fatalf("frame to %s does not decode: %v", s.addr, err)
		}
		if msg.From != "self:0" {
			t.Errorf("frame to %s: From = %q, want %q", s.addr, msg.From, "self:0")
		}
		mc := msg.Multicast
		if mc == nil || !mc.Deliver || mc.Envelope.Key() != "test/it-1#0" {
			t.Errorf("frame to %s carries wrong payload: %+v", s.addr, mc)
		}
	}
	for _, addr := range v.members {
		if !seen[addr] {
			t.Errorf("member %s got no frame", addr)
		}
	}
	if st := r.Stats(); st.Forwarded != int64(len(v.members)) {
		t.Errorf("stats.Forwarded = %d, want %d", st.Forwarded, len(v.members))
	}
}

// TestFramePathDisabledForOverridesAndAcks checks that acked forwards
// share the encode-once frame: an acked leaf fan-out to N members builds
// one frame carrying one non-zero AckSeq and sends it N times, registers
// N pending destinations, and each member's ack resolves only its own.
// (The name predates the shared path and is kept so the test keeps its
// identity in the suite.)
func TestFramePathDisabledForOverridesAndAcks(t *testing.T) {
	v := &frameView{zone: "/z", name: "self", addr: "self:0",
		members: map[string]string{"m1": "m1:0", "m2": "m2:0", "m3": "m3:0"}}
	var deadlines []func()
	ar, tr := ackedRouter(t, v, 4, &deadlines)
	env := envelope("it-2")
	if err := ar.Publish(env, "/z"); err != nil {
		t.Fatal(err)
	}
	n := len(v.members)
	if tr.newFrames != 1 || len(tr.sent) != n || len(tr.msgSends) != 0 {
		t.Fatalf("acked fan-out built %d frames, made %d SendFrame and %d Send calls; want 1, %d, 0",
			tr.newFrames, len(tr.sent), len(tr.msgSends), n)
	}
	var seq uint64
	for _, s := range tr.sent {
		msg, err := wire.Decode(s.frame.Payload())
		if err != nil {
			t.Fatal(err)
		}
		if got := msg.Multicast.AckSeq; got == 0 || seq != 0 && got != seq {
			t.Fatalf("frame to %s carries AckSeq %d; want one non-zero AckSeq for all (%d)", s.addr, got, seq)
		}
		seq = msg.Multicast.AckSeq
	}
	if ar.PendingAcks() != n {
		t.Fatalf("PendingAcks = %d, want %d", ar.PendingAcks(), n)
	}
	for i, s := range tr.sent {
		ar.HandleMessage(ackFrom(s.addr, seq, env))
		ar.HandleMessage(ackFrom(s.addr, seq, env)) // a duplicate ack resolves nothing more
		if want := n - i - 1; ar.PendingAcks() != want {
			t.Fatalf("after %s's ack PendingAcks = %d, want %d", s.addr, ar.PendingAcks(), want)
		}
	}
	if st := ar.Stats(); st.AcksReceived != int64(n) {
		t.Errorf("AcksReceived = %d, want %d", st.AcksReceived, n)
	}
}

// TestPredicateCacheBounded feeds the router more distinct dissemination
// predicates than its cache holds: the cache stays at or under its cap,
// and every predicate still parses and evaluates.
func TestPredicateCacheBounded(t *testing.T) {
	r, err := NewRouter(frameRouterConfig(&frameView{zone: "/z", name: "self", addr: "self:0"}, &frameTransport{addr: "self:0"}))
	if err != nil {
		t.Fatal(err)
	}
	row := value.Map{"load": value.Int(maxCachedPredicates)}
	for i := 0; i < 3*maxCachedPredicates; i++ {
		p, err := r.predicate(fmt.Sprintf("load >= %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if want := i <= maxCachedPredicates; p.Eval(row) != want {
			t.Fatalf("load >= %d on load %d = %v, want %v", i, maxCachedPredicates, !want, want)
		}
		if n := len(r.preds); n > maxCachedPredicates {
			t.Fatalf("after %d predicates the cache holds %d, cap %d", i+1, n, maxCachedPredicates)
		}
	}
}

// nopTransport is a Transport whose Send does nothing and allocates
// nothing, so a test can count the router's own allocations.
type nopTransport struct{ addr string }

func (tr nopTransport) Addr() string                     { return tr.addr }
func (tr nopTransport) Send(string, *wire.Message) error { return nil }
func (tr nopTransport) Close() error                     { return nil }

// staticLeafView is a frameView whose leaf table is built once, so
// reading it allocates nothing.
type staticLeafView struct {
	*frameView
	rows []astrolabe.Row
}

func (v staticLeafView) Table(zone string) ([]astrolabe.Row, bool) {
	if zone != v.zone {
		return nil, false
	}
	return v.rows, true
}

// TestLeafFanOutAllocationsFlatInMembers checks that one leaf fan-out's
// allocations do not grow with the member count: the forward is built
// once, and no per-destination record is kept beside the dedup state.
func TestLeafFanOutAllocationsFlatInMembers(t *testing.T) {
	allocs := func(members int) float64 {
		fv := &frameView{zone: "/z", name: "self", addr: "self:0", members: map[string]string{}}
		for i := 0; i < members; i++ {
			fv.members[fmt.Sprintf("m%d", i)] = fmt.Sprintf("m%d:0", i)
		}
		rows, _ := fv.Table("/z")
		r, err := NewRouter(frameRouterConfig(staticLeafView{fv, rows}, nopTransport{addr: fv.addr}))
		if err != nil {
			t.Fatal(err)
		}
		env := envelope("flat")
		r.Reinject(&env) // interns every member address
		return testing.AllocsPerRun(50, func() { r.Reinject(&env) })
	}
	few, many := allocs(4), allocs(64)
	if many > few {
		t.Fatalf("a leaf fan-out allocates %.0f objects to 64 members and %.0f to 4; want no growth", many, few)
	}
}
