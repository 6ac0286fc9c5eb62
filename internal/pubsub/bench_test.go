package pubsub

import (
	"fmt"
	"testing"

	"newswire/internal/wire"
)

// BenchmarkSubscriberMatch is the leaf's exact test on a selective-shaped
// node: two predicate subscriptions of the form "subjects = 'bench/sNN'
// AND urgency <= N", and a stream of envelopes of which 1 in 8 matches.
// It reports ns and heap objects per ShouldDeliver call.
func BenchmarkSubscriberMatch(b *testing.B) {
	s, err := NewSubscriber(Config{Agent: predicateAgent(b), Mode: ModePredicate, Counters: &Counters{}})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{
		"subjects = 'bench/s00' AND urgency <= 8",
		"subjects = 'bench/s03' AND urgency <= 5",
	} {
		if _, err := s.SubscribeQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	envs := make([]*wire.ItemEnvelope, 64)
	matches := 0
	for i := range envs {
		it := testItem()
		it.ID = fmt.Sprintf("story-%d", i)
		it.Urgency = 1 + i%8
		// Every eighth envelope carries a subscribed subject; the rest
		// carry subjects forwarded here as false positives.
		it.Subjects = []string{fmt.Sprintf("bench/s%02d", 4+i%16)}
		if i%8 == 0 {
			it.Subjects[0] = "bench/s00"
		}
		env, err := EncodeItem(it, ModePredicate, DefaultGeometry, nil)
		if err != nil {
			b.Fatal(err)
		}
		envs[i] = &env
		if s.ShouldDeliver(&env) {
			matches++
		}
	}
	if matches != len(envs)/8 {
		b.Fatalf("%d of %d envelopes match, want 1 in 8", matches, len(envs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delivered = s.ShouldDeliver(envs[i%len(envs)])
	}
}

// delivered keeps the measured call's result alive.
var delivered bool
