package pubsub

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/news"
	"newswire/internal/query"
	"newswire/internal/sim"
	"newswire/internal/value"
	"newswire/internal/wire"
)

func testAgent(t *testing.T) *astrolabe.Agent {
	t.Helper()
	eng := sim.NewEngine(1)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	ep := net.Attach("n0", func(*wire.Message) {})
	a, err := astrolabe.NewAgent(astrolabe.Config{
		Name: "node-0", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testItem() *news.Item {
	return &news.Item{
		Publisher: "slashdot",
		ID:        "story-9",
		Revision:  0,
		Headline:  "Linux 2.6 roadmap",
		Body:      "kernel news",
		Subjects:  []string{"tech/linux"},
		Urgency:   5,
		Published: time.Unix(1017619200, 0).UTC(),
	}
}

func TestNewSubscriberValidation(t *testing.T) {
	if _, err := NewSubscriber(Config{}); err == nil {
		t.Error("nil agent accepted")
	}
	a := testAgent(t)
	if _, err := NewSubscriber(Config{Agent: a, Mode: Mode(9)}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := NewSubscriber(Config{Agent: a, Geometry: Geometry{Bits: 4, Hashes: 1}}); err == nil {
		t.Error("tiny geometry accepted")
	}
	s, err := NewSubscriber(Config{Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != ModeBloom {
		t.Errorf("default mode = %v", s.Mode())
	}
}

func TestModeString(t *testing.T) {
	if ModeBloom.String() != "bloom" || ModePredicate.String() != "predicate" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

func TestSubscribeAdvertisesBloom(t *testing.T) {
	a := testAgent(t)
	s, err := NewSubscriber(Config{Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe("tech/linux", "world/asia"); err != nil {
		t.Fatal(err)
	}

	subsAttr := a.Attr(astrolabe.AttrSubs)
	raw, ok := subsAttr.RawBytes()
	if !ok {
		t.Fatal("subs attribute not advertised")
	}
	f, err := bloom.FromBytes(raw, DefaultGeometry.Bits, DefaultGeometry.Hashes)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Test("tech/linux") || !f.Test("world/asia") {
		t.Fatal("advertised filter missing subscriptions")
	}

	subjects := s.Subjects()
	if len(subjects) != 2 || subjects[0] != "tech/linux" || subjects[1] != "world/asia" {
		t.Fatalf("Subjects() = %v", subjects)
	}
}

func TestUnsubscribeRebuildsFilter(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	s.Subscribe("tech/linux", "world/asia")
	s.Unsubscribe("tech/linux")

	raw, _ := a.Attr(astrolabe.AttrSubs).RawBytes()
	f, _ := bloom.FromBytes(raw, DefaultGeometry.Bits, DefaultGeometry.Hashes)
	if f.Test("tech/linux") {
		t.Fatal("unsubscribed subject still in filter")
	}
	if !f.Test("world/asia") {
		t.Fatal("remaining subject lost")
	}
}

func TestSubscribeEmptySubjectRejected(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	if err := s.Subscribe(""); err == nil {
		t.Fatal("empty subject accepted")
	}
}

func TestEncodeDecodeItemBloom(t *testing.T) {
	it := testItem()
	env, err := EncodeItem(it, ModeBloom, DefaultGeometry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.SubjectBits) != DefaultGeometry.Hashes {
		t.Fatalf("SubjectBits = %v, want %d positions", env.SubjectBits, DefaultGeometry.Hashes)
	}
	want := bloom.PositionsFor("tech/linux", DefaultGeometry.Bits, DefaultGeometry.Hashes)
	if env.SubjectBits[0] != want[0] {
		t.Fatal("bit positions disagree with bloom package")
	}
	if env.Urgency != 5 {
		t.Fatalf("urgency not mirrored: %d", env.Urgency)
	}
	got, err := DecodeItem(&env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Headline != it.Headline {
		t.Fatal("payload content lost")
	}
}

// TestDecodedItemOutlivesReadBuffer receives an item the way a TCP node
// does — decode the frame from a read buffer, then the item from the
// envelope — and overwrites the buffer: neither the envelope nor the
// delivered item may change, since the transport recycles the buffer
// before the application sees the item.
func TestDecodedItemOutlivesReadBuffer(t *testing.T) {
	it := testItem()
	it.Body = "kernel news\r\nwith <markup> & a second line" // escaped, so decoding rewrites it
	env, err := EncodeItem(it, ModeBloom, DefaultGeometry, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.Encode(&wire.Message{Kind: wire.KindMulticast, From: "rep:1",
		Multicast: &wire.Multicast{TargetZone: "/z", Deliver: true, Envelope: env}})
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(frame)
	msg, err := wire.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeItem(&msg.Multicast.Envelope)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = '?'
	}
	if again, err := wire.Encode(msg); err != nil || !bytes.Equal(again, frame) {
		t.Errorf("envelope changed with the read buffer (re-encode err %v)", err)
	}
	if !reflect.DeepEqual(got, it) {
		t.Errorf("delivered item changed with the read buffer:\n got %+v\nwant %+v", got, it)
	}
}

func TestDecodeItemRejectsMismatchedEnvelope(t *testing.T) {
	it := testItem()
	env, _ := EncodeItem(it, ModeBloom, DefaultGeometry, nil)

	bad := env
	bad.ItemID = "other"
	if _, err := DecodeItem(&bad); err == nil {
		t.Error("identity mismatch accepted")
	}
	bad = env
	bad.Subjects = []string{"sports/soccer"}
	if _, err := DecodeItem(&bad); err == nil {
		t.Error("subject mismatch accepted")
	}
	bad = env
	bad.Subjects = append([]string{}, env.Subjects...)
	bad.Subjects = append(bad.Subjects, "extra/subject")
	if _, err := DecodeItem(&bad); err == nil {
		t.Error("extra subject accepted")
	}
}

func rowWithSubs(filter *bloom.Filter) astrolabe.Row {
	return astrolabe.Row{
		Name:  "child",
		Attrs: value.Map{astrolabe.AttrSubs: value.Bytes(filter.Bytes())},
	}
}

func TestForwardFilterBloom(t *testing.T) {
	geo := DefaultGeometry
	filter := ForwardFilter(ModeBloom, geo, nil)

	f := bloom.New(geo.Bits, geo.Hashes)
	f.Add("tech/linux")
	row := rowWithSubs(f)

	env, _ := EncodeItem(testItem(), ModeBloom, geo, nil)
	if !filter("/", row, &env) {
		t.Fatal("matching subscription not forwarded")
	}

	other := testItem()
	other.Subjects = []string{"sports/soccer"}
	envOther, _ := EncodeItem(other, ModeBloom, geo, nil)
	if filter("/", row, &envOther) {
		t.Fatal("non-matching subject forwarded (and this subject does not collide)")
	}

	// Row with no subs attribute: prune.
	if filter("/", astrolabe.Row{Attrs: value.Map{}}, &env) {
		t.Fatal("row without subs forwarded")
	}
}

func TestForwardFilterBloomMultiSubjectAnyMatch(t *testing.T) {
	geo := Geometry{Bits: 1024, Hashes: 4}
	filter := ForwardFilter(ModeBloom, geo, nil)
	f := bloom.New(geo.Bits, geo.Hashes)
	f.Add("world/asia")
	row := rowWithSubs(f)

	it := testItem()
	it.Subjects = []string{"tech/linux", "world/asia"}
	env, _ := EncodeItem(it, ModeBloom, geo, nil)
	if len(env.SubjectBits) != 8 {
		t.Fatalf("expected 2 subjects × 4 hashes positions, got %d", len(env.SubjectBits))
	}
	if !filter("/", row, &env) {
		t.Fatal("any-subject match failed")
	}
}

func TestShouldDeliverExactMatch(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	s.Subscribe("tech/linux")

	env, _ := EncodeItem(testItem(), ModeBloom, DefaultGeometry, nil)
	if !s.ShouldDeliver(&env) {
		t.Fatal("subscribed item rejected")
	}

	other := testItem()
	other.Subjects = []string{"sports/soccer"}
	envOther, _ := EncodeItem(other, ModeBloom, DefaultGeometry, nil)
	if s.ShouldDeliver(&envOther) {
		t.Fatal("unsubscribed item delivered — false positive not filtered")
	}
}

func TestShouldDeliverPredicate(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	s.Subscribe("tech/linux")
	if err := s.SetPredicate("urgency <= 5 AND publisher = 'slashdot'"); err != nil {
		t.Fatal(err)
	}

	env, _ := EncodeItem(testItem(), ModeBloom, DefaultGeometry, nil)
	if !s.ShouldDeliver(&env) {
		t.Fatal("predicate-satisfying item rejected")
	}

	urgent := testItem()
	urgent.Urgency = 8
	envU, _ := EncodeItem(urgent, ModeBloom, DefaultGeometry, nil)
	if s.ShouldDeliver(&envU) {
		t.Fatal("predicate-failing item delivered")
	}

	// A misspelled field or a literal of the wrong type fails at the call.
	for _, bad := range []string{"bad syntax (", "urgncy <= 5", "urgency = 'high'"} {
		if err := s.SetPredicate(bad); err == nil {
			t.Fatalf("bad predicate %q accepted", bad)
		}
	}
	if err := s.SetPredicate(""); err != nil {
		t.Fatal("clearing predicate failed")
	}
	if !s.ShouldDeliver(&envU) {
		t.Fatal("cleared predicate still filtering")
	}
}

func TestItemMetadataRow(t *testing.T) {
	env, _ := EncodeItem(testItem(), ModeBloom, DefaultGeometry, nil)
	row := ItemMetadataRow(&env)
	if p, _ := row["publisher"].AsString(); p != "slashdot" {
		t.Errorf("publisher = %v", row["publisher"])
	}
	if u, _ := row["urgency"].AsInt(); u != 5 {
		t.Errorf("urgency = %v", row["urgency"])
	}
	if subs, _ := row["subjects"].AsStrings(); len(subs) != 1 {
		t.Errorf("subjects = %v", row["subjects"])
	}
}

func predicateAgent(t *testing.T) *astrolabe.Agent {
	t.Helper()
	eng := sim.NewEngine(1)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	ep := net.Attach("n0", func(*wire.Message) {})
	a, err := astrolabe.NewAgent(astrolabe.Config{
		Name: "node-0", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: rand.New(rand.NewSource(1)),
		PrefixRules: []astrolabe.PrefixRule{
			{Prefix: AttrSubGroups, Op: astrolabe.PrefixSubgroup},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigErrorTyped(t *testing.T) {
	a := testAgent(t)
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"unknown mode", Config{Agent: a, Mode: Mode(9)}, "Mode"},
		{"tiny bits", Config{Agent: a, Geometry: Geometry{Bits: 4, Hashes: 1}}, "Geometry"},
		{"huge bits", Config{Agent: a, Geometry: Geometry{Bits: MaxGeometryBits + 1, Hashes: 1}}, "Geometry"},
		{"zero hashes", Config{Agent: a, Geometry: Geometry{Bits: 1024, Hashes: 0}}, "Geometry"},
		{"many hashes", Config{Agent: a, Geometry: Geometry{Bits: 1024, Hashes: MaxGeometryHash + 1}}, "Geometry"},
	}
	for _, tc := range cases {
		_, err := NewSubscriber(tc.cfg)
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: err = %v, want *ConfigError", tc.name, err)
			continue
		}
		if cerr.Field != tc.field {
			t.Errorf("%s: Field = %q, want %q", tc.name, cerr.Field, tc.field)
		}
	}
	// Defaults are valid and not ConfigErrors.
	if _, err := NewSubscriber(Config{Agent: a, Mode: ModePredicate}); err != nil {
		t.Fatalf("default predicate config rejected: %v", err)
	}
	var cerr *ConfigError
	if _, err := NewSubscriber(Config{}); !errors.As(err, &cerr) && err == nil {
		t.Fatal("nil agent accepted")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"", ModeBloom}, {"bloom", ModeBloom}, {"predicate", ModePredicate}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("round trip %q -> %q", tc.in, got)
		}
	}
	// The two removed summaries are rejected like any unknown name (the
	// second is split so a grep for the removed value stays empty).
	for _, in := range []string{"nope", "attributes", "category" + "-mask"} {
		_, err := ParseMode(in)
		if err == nil || !strings.Contains(err.Error(), "bloom, predicate") {
			t.Errorf("ParseMode(%q) err = %v, want one listing bloom, predicate", in, err)
		}
	}
}

func TestSubscribeQueryAdvertisesSignature(t *testing.T) {
	a := predicateAgent(t)
	s, err := NewSubscriber(Config{Agent: a, Mode: ModePredicate, Geometry: Geometry{Bits: 1024, Hashes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := s.SubscribeQuery("urgency >= 6 and subjects = 'tech/linux'")
	if err != nil {
		t.Fatal(err)
	}
	if qs := s.Queries(); len(qs) != 1 || qs[0] != canon {
		t.Fatalf("Queries() = %v, want [%s]", qs, canon)
	}

	// The compiled filter travels only inside the subgroup signature set;
	// a raw AttrSubs copy would double the summary's gossip bytes.
	if _, ok := a.Attr(astrolabe.AttrSubs).RawBytes(); ok {
		t.Fatal("predicate leaf advertised a redundant raw subs filter")
	}
	setEnc, ok := a.Attr(AttrSubGroups).RawBytes()
	if !ok {
		t.Fatal("subgroup set not advertised")
	}
	_, setFilters, ok := bloom.DecodeSignatureSet(setEnc)
	if !ok || len(setFilters) != 1 {
		t.Fatalf("subgroup set: n=%d ok=%v", len(setFilters), ok)
	}
	raw := setFilters[0]
	f, err := bloom.FromBytes(raw, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		query.SubjectKey("tech/linux"), query.WildPublisher,
		query.UrgencyKey(6), query.UrgencyKey(7), query.UrgencyKey(8),
	} {
		if !f.Test(key) {
			t.Errorf("advertised filter missing %q", key)
		}
	}
	if f.Test(query.UrgencyKey(5)) || f.Test(query.WildSubject) || f.Test(query.WildUrgency) {
		t.Error("advertised filter carries keys the predicate excludes")
	}

	enc, ok := a.Attr(AttrSubGroups).RawBytes()
	if !ok {
		t.Fatal("subgroup set not advertised")
	}
	k, filters, ok := bloom.DecodeSignatureSet(enc)
	if !ok || k != DefaultSubgroupK || len(filters) != 1 {
		t.Fatalf("subgroup set: k=%d n=%d ok=%v", k, len(filters), ok)
	}
	if !bytes.Equal(filters[0], raw) {
		t.Fatal("leaf subgroup filter differs from the subs filter")
	}

	if err := s.UnsubscribeQuery("urgency>=6 AND subjects='tech/linux'"); err != nil {
		t.Fatal(err)
	}
	if qs := s.Queries(); len(qs) != 0 {
		t.Fatalf("Queries() after unsubscribe = %v", qs)
	}
}

func TestSubscribeQueryRequiresPredicateMode(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	if _, err := s.SubscribeQuery("urgency = 1"); err == nil {
		t.Fatal("SubscribeQuery accepted outside ModePredicate")
	}
	ap := predicateAgent(t)
	sp, _ := NewSubscriber(Config{Agent: ap, Mode: ModePredicate})
	if _, err := sp.SubscribeQuery("urgency = "); err == nil {
		t.Fatal("malformed query accepted")
	}
}

func TestShouldDeliverQueryAndCounters(t *testing.T) {
	a := predicateAgent(t)
	var ctr Counters
	s, err := NewSubscriber(Config{Agent: a, Mode: ModePredicate, Counters: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubscribeQuery("publisher = 'slashdot' AND urgency >= 5"); err != nil {
		t.Fatal(err)
	}

	env, _ := EncodeItem(testItem(), ModePredicate, DefaultGeometry, nil)
	if !s.ShouldDeliver(&env) {
		t.Fatal("query-matching item rejected")
	}
	calm := testItem()
	calm.Urgency = 1
	envCalm, _ := EncodeItem(calm, ModePredicate, DefaultGeometry, nil)
	if s.ShouldDeliver(&envCalm) {
		t.Fatal("query-failing item delivered")
	}
	snap := ctr.Snapshot()
	if snap.ExactMatches != 1 || snap.FalsePositiveDrops != 1 {
		t.Fatalf("counters = %+v, want 1 match / 1 drop", snap)
	}

	// Plain subject subscriptions still work alongside queries.
	if err := s.Subscribe("sports/soccer"); err != nil {
		t.Fatal(err)
	}
	soccer := testItem()
	soccer.Subjects = []string{"sports/soccer"}
	soccer.Urgency = 1
	envSoccer, _ := EncodeItem(soccer, ModePredicate, DefaultGeometry, nil)
	if !s.ShouldDeliver(&envSoccer) {
		t.Fatal("plain subject subscription lost in predicate mode")
	}
}

func TestEncodeItemPredicateLayout(t *testing.T) {
	it := testItem()
	it.Subjects = []string{"tech/linux", "world/asia"}
	geo := Geometry{Bits: 1024, Hashes: 4}
	env, err := EncodeItem(it, ModePredicate, geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (2 + 2) * geo.Hashes; len(env.SubjectBits) != want {
		t.Fatalf("SubjectBits len = %d, want %d", len(env.SubjectBits), want)
	}
	wantSub := bloom.PositionsFor(query.SubjectKey("tech/linux"), geo.Bits, geo.Hashes)
	for i, p := range wantSub {
		if env.SubjectBits[i] != p {
			t.Fatal("subject group positions disagree with signature keys")
		}
	}
	wantUrg := bloom.PositionsFor(query.UrgencyKey(5), geo.Bits, geo.Hashes)
	off := len(env.SubjectBits) - geo.Hashes
	for i, p := range wantUrg {
		if env.SubjectBits[off+i] != p {
			t.Fatal("urgency group positions disagree with signature keys")
		}
	}
}

func TestForwardFilterPredicatePrecision(t *testing.T) {
	geo := Geometry{Bits: 1024, Hashes: 4}
	a := predicateAgent(t)
	var ctr Counters
	s, err := NewSubscriber(Config{Agent: a, Mode: ModePredicate, Geometry: geo})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubscribeQuery("subjects = 'tech/linux' AND urgency >= 6"); err != nil {
		t.Fatal(err)
	}
	row := astrolabe.Row{Name: "child", Attrs: value.Map{
		astrolabe.AttrSubs: a.Attr(astrolabe.AttrSubs),
		AttrSubGroups:      a.Attr(AttrSubGroups),
	}}
	filter := ForwardFilter(ModePredicate, geo, &ctr)

	calm := testItem() // tech/linux, urgency 5
	envCalm, _ := EncodeItem(calm, ModePredicate, geo, nil)
	if filter("/", row, &envCalm) {
		t.Fatal("urgency below the predicate range forwarded — no precision win")
	}
	urgent := testItem()
	urgent.Urgency = 7
	envHot, _ := EncodeItem(urgent, ModePredicate, geo, nil)
	if !filter("/", row, &envHot) {
		t.Fatal("matching item pruned — signature unsound")
	}
	wrongSubj := testItem()
	wrongSubj.Subjects = []string{"sports/soccer"}
	wrongSubj.Urgency = 7
	envWS, _ := EncodeItem(wrongSubj, ModePredicate, geo, nil)
	if filter("/", row, &envWS) {
		t.Fatal("non-matching subject forwarded")
	}
	snap := ctr.Snapshot()
	if snap.Forwards != 1 || snap.SubgroupTests == 0 {
		t.Fatalf("counters = %+v, want 1 forward and subgroup tests > 0", snap)
	}

	// ModeBloom over plain subject bits cannot see the urgency constraint:
	// both tech/linux items pass its filter — the false positives
	// ModePredicate prunes.
	fb := bloom.New(geo.Bits, geo.Hashes)
	fb.Add("tech/linux")
	bloomRow := rowWithSubs(fb)
	bloomFilter := ForwardFilter(ModeBloom, geo, nil)
	envCalmB, _ := EncodeItem(calm, ModeBloom, geo, nil)
	if !bloomFilter("/", bloomRow, &envCalmB) {
		t.Fatal("bloom baseline broken")
	}
}

func TestForwardFilterPredicateFallbacks(t *testing.T) {
	geo := Geometry{Bits: 1024, Hashes: 4}
	env, _ := EncodeItem(testItem(), ModePredicate, geo, nil)
	filter := ForwardFilter(ModePredicate, geo, nil)

	// Present but unreadable subg fails open, never a lost delivery: the
	// string ScrambleRows writes over a row mid-repair, and bytes that do
	// not parse as a signature set.
	for name, subg := range map[string]value.Value{
		"scrambled": value.String("scrambled-4037200794235010051"),
		"malformed": value.Bytes([]byte{0x00, 0x13, 0x9a}),
	} {
		if !filter("/", astrolabe.Row{Attrs: value.Map{AttrSubGroups: subg}}, &env) {
			t.Errorf("%s subgroup set lost a delivery instead of failing open", name)
		}
	}
	// Absent subg: no subscriber below, prune — a leftover raw subs filter
	// is not consulted.
	sf := bloom.New(geo.Bits, geo.Hashes)
	query.SubjectsSignature([]string{"tech/linux"}).Fill(sf)
	if filter("/", astrolabe.Row{Attrs: value.Map{astrolabe.AttrSubs: value.Bytes(sf.Bytes())}}, &env) {
		t.Error("row without a subgroup set forwarded")
	}
	// A well-formed set from another geometry is skipped, not failed open.
	other := bloom.New(2048, geo.Hashes)
	query.SubjectsSignature([]string{"tech/linux"}).Fill(other)
	foreign := value.Bytes(bloom.EncodeSignatureSet(DefaultSubgroupK, [][]byte{other.Bytes()}))
	if filter("/", astrolabe.Row{Attrs: value.Map{AttrSubGroups: foreign}}, &env) {
		t.Error("subgroup set of another geometry forwarded")
	}
	// Envelope encoded under another mode (no predicate position groups):
	// the filter recomputes positions rather than misreading the layout.
	own := value.Bytes(bloom.EncodeSignatureSet(DefaultSubgroupK, [][]byte{sf.Bytes()}))
	envBloom, _ := EncodeItem(testItem(), ModeBloom, geo, nil)
	if !filter("/", astrolabe.Row{Attrs: value.Map{AttrSubGroups: own}}, &envBloom) {
		t.Error("cross-mode envelope not recomputed")
	}
}
