package pubsub

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"newswire/internal/query"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// TestShouldDeliverAllocationBudget: the leaf's exact test runs on every
// copy a node receives, so after the first call it allocates nothing — a
// subject hit, a predicate hit, a miss, and a hit that a narrowing
// predicate then reads all reuse the subscriber's one row.
func TestShouldDeliverAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s, err := NewSubscriber(Config{Agent: predicateAgent(t), Mode: ModePredicate, Counters: &Counters{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe("sports/soccer"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubscribeQuery("subjects = 'tech/linux' AND urgency <= 5"); err != nil {
		t.Fatal(err)
	}
	encode := func(subject string, urgency int) *wire.ItemEnvelope {
		it := testItem()
		it.Subjects, it.Urgency = []string{subject}, urgency
		env, err := EncodeItem(it, ModePredicate, DefaultGeometry, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &env
	}
	cases := []struct {
		name      string
		env       *wire.ItemEnvelope
		predicate string
		want      bool
	}{
		{"subject hit", encode("sports/soccer", 8), "", true},
		{"predicate hit", encode("tech/linux", 3), "", true},
		{"miss", encode("tech/linux", 7), "", false},
		{"narrowing predicate", encode("sports/soccer", 8), "publisher = 'slashdot'", true},
		{"narrowing predicate miss", encode("tech/linux", 3), "revision > 0", false},
	}
	for _, c := range cases {
		if err := s.SetPredicate(c.predicate); err != nil {
			t.Fatal(err)
		}
		if got := s.ShouldDeliver(c.env); got != c.want {
			t.Fatalf("%s: ShouldDeliver = %v, want %v", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { s.ShouldDeliver(c.env) }); n != 0 {
			t.Errorf("%s: ShouldDeliver allocates %v objects per call, budget 0", c.name, n)
		}
	}
}

// TestEncodeItemAllocationBudget: a publish allocates only what the
// envelope keeps, in either mode — the NITF payload, the subject list and
// the position slice; the key is a region of a shared slab.
func TestEncodeItemAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const budget = 3
	it := testItem()
	for _, mode := range []Mode{ModeBloom, ModePredicate} {
		if n := testing.AllocsPerRun(100, func() { _, _ = EncodeItem(it, mode, DefaultGeometry, nil) }); n > budget {
			t.Errorf("EncodeItem(%s) allocates %v objects, budget %d", mode, n, budget)
		}
	}
}

// matchOracle is the exact test computed from scratch: a fresh metadata
// row per call, built with copying constructors.
type matchOracle struct {
	subjects  []string
	queries   []*query.Predicate
	narrowing *query.Predicate
}

func (o matchOracle) match(env *wire.ItemEnvelope) bool {
	row := value.Map{
		"publisher": value.String(env.Publisher),
		"item_id":   value.String(env.ItemID),
		"revision":  value.Int(int64(env.Revision)),
		"urgency":   value.Int(int64(env.Urgency)),
		"subjects":  value.Strings(env.Subjects),
		"published": value.Time(env.Published),
	}
	matched := false
	for _, subj := range env.Subjects {
		matched = matched || slices.Contains(o.subjects, subj)
	}
	for _, p := range o.queries {
		matched = matched || p.Match(row)
	}
	if matched && o.narrowing != nil {
		return o.narrowing.Match(row)
	}
	return matched
}

// TestShouldDeliverConcurrentOracle: eight goroutines share two
// subscribers' rows over 1,000 distinct envelopes; every answer equals a
// fresh-row oracle, and after each call the row holds no value (it must
// not keep an envelope alive).
func TestShouldDeliverConcurrentOracle(t *testing.T) {
	queries := []string{
		"subjects = 'bench/s01' AND urgency <= 5",
		"subjects IN ('bench/s02', 'bench/s03') AND publisher = 'p1'",
		"urgency = 1",
	}
	subjects := []string{"bench/s00", "bench/s04"}
	type arm struct {
		s      *Subscriber
		oracle matchOracle
	}
	var arms []arm
	for _, narrowing := range []string{"", "revision < 2 OR subjects = 'bench/s04'"} {
		s, err := NewSubscriber(Config{Agent: predicateAgent(t), Mode: ModePredicate})
		if err != nil {
			t.Fatal(err)
		}
		o := matchOracle{subjects: subjects}
		if err := s.Subscribe(subjects...); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := s.SubscribeQuery(q); err != nil {
				t.Fatal(err)
			}
			p, _ := query.Parse(q)
			o.queries = append(o.queries, p)
		}
		if err := s.SetPredicate(narrowing); err != nil {
			t.Fatal(err)
		}
		if narrowing != "" {
			o.narrowing, _ = query.Parse(narrowing)
		}
		arms = append(arms, arm{s, o})
	}
	envs := make([]*wire.ItemEnvelope, 1000)
	hits := 0
	for i := range envs {
		it := testItem()
		it.ID = fmt.Sprintf("story-%d", i)
		it.Publisher = fmt.Sprintf("p%d", i%3)
		it.Revision = i % 3
		it.Urgency = i % 9
		it.Subjects = []string{fmt.Sprintf("bench/s%02d", i%7)}
		if i%5 == 0 {
			it.Subjects = append(it.Subjects, fmt.Sprintf("bench/s%02d", (i+3)%7))
		}
		env, err := EncodeItem(it, ModePredicate, DefaultGeometry, nil)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = &env
		if arms[0].oracle.match(&env) {
			hits++
		}
	}
	if hits == 0 || hits == len(envs) {
		t.Fatalf("%d of %d envelopes match: the mix tests nothing", hits, len(envs))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range envs {
				env := envs[(i*7+g*131)%len(envs)]
				a := arms[(i+g)%len(arms)]
				if got, want := a.s.ShouldDeliver(env), a.oracle.match(env); got != want {
					t.Errorf("ShouldDeliver(%s) = %v, oracle %v", env.Key(), got, want)
					return
				}
				a.s.mu.Lock()
				for k, v := range a.s.row {
					if v.IsValid() {
						t.Errorf("row keeps %s = %v after ShouldDeliver returned", k, v)
					}
				}
				a.s.mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}
