package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"newswire"
	"newswire/internal/workload"
)

// input is everything a workload feeds the system, generated from the seed
// before anything is measured: the items of every phase in publication
// order, their body hashes, and the exact-match oracle over the generated
// subscriptions. The program under test receives only these inputs.
type input struct {
	items  []*newswire.Item
	hashes [][sha256.Size]byte
	// want reports whether subscriber node must receive item g, by exact
	// match on the generated subscriptions — no Bloom filter or signature
	// code is consulted.
	want func(g, node int) bool
	// queries[node] are the predicate subscriptions of a node (selective);
	// subjects[node] its plain subjects (other workloads).
	queries  [][]string
	subjects [][]string
}

func newInput(nodes int) *input {
	return &input{queries: make([][]string, nodes), subjects: make([][]string, nodes)}
}

// publishers is how many nodes publish; item g is published by publisher
// g % publishers under the publisher name pubName(g % publishers). Each
// publishing node needs a name of its own because a realm keeps one
// publisher certificate per name.
const publishers = 4

func pubName(k int) string { return fmt.Sprintf("wire%d", k) }

// stamp gives item g its identity. The ID carries the global index so a
// delivery is booked without a map lookup.
func stamp(it *newswire.Item, g int) {
	it.Publisher = pubName(g % publishers)
	it.ID = fmt.Sprintf("a%07d", g)
}

// itemIndex recovers the global index from an ID made by stamp.
func itemIndex(id string) (int, bool) {
	if len(id) != 8 || id[0] != 'a' {
		return 0, false
	}
	g := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		g = g*10 + int(c-'0')
	}
	return g, true
}

func (in *input) hashAll() {
	in.hashes = make([][sha256.Size]byte, len(in.items))
	for g, it := range in.items {
		in.hashes[g] = sha256.Sum256([]byte(it.Body))
	}
}

// articles draws wire-service articles (some of them revisions) whose
// subjects come from pool, sum(phases) of them. Body sizes follow the
// profile's exponential distribution around 1.8 KB, but stratified within
// each phase: a phase of m items gets the m quantile midpoints of the
// distribution, in an order the seed decides. Every seed therefore sends
// the same bytes through a phase, and bytes per item do not move with the
// luck of 2,000 draws from a long-tailed distribution.
func articles(rng *rand.Rand, phases []int, pool []string) ([]*newswire.Item, error) {
	profile := workload.WireServiceProfile("wire")
	profile.Subjects = pool
	gen, err := workload.NewArticleGen(profile, rng)
	if err != nil {
		return nil, err
	}
	var items []*newswire.Item
	for _, m := range phases {
		sizes := make([]int, m)
		for k := range sizes {
			sizes[k] = int(-float64(profile.MeanBodyBytes) * math.Log(1-(float64(k)+0.5)/float64(m)))
			if sizes[k] < minBodyBytes {
				sizes[k] = minBodyBytes
			}
		}
		rng.Shuffle(m, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		for _, size := range sizes {
			it := gen.Next(time.Time{})
			it.Body = strings.Repeat("x", size)
			stamp(it, len(items))
			items = append(items, it)
		}
	}
	return items, nil
}

// minBodyBytes is the article generator's own floor on body sizes.
const minBodyBytes = 200

const fanoutSubject = "bench/fanout"

// genFanout is the input of fanout and signed: every node subscribes to
// the one subject every article carries.
func genFanout(seed int64, nodes int, phases []int) (*input, error) {
	items, err := articles(rand.New(rand.NewSource(seed)), phases, []string{fanoutSubject})
	if err != nil {
		return nil, err
	}
	in := newInput(nodes)
	in.items, in.want = items, func(g, node int) bool { return true }
	for i := range in.subjects {
		in.subjects[i] = []string{fanoutSubject}
	}
	in.hashAll()
	return in, nil
}

// The selective workload's subscriptions are a fixed table, the same for
// every seed, so that deliveries per item, hops per delivery and the false
// positives of the zones' signature sets — which set bytes and CPU per item
// — do not move with the seed. The seed decides the item sequence.
//
// Subjects are ranked by popularity (Zipf 1.0). Only the selRanks most
// popular ones have subscribers: every one has a first subscriber that
// takes any urgency, the top 8 a second that takes urgency <= 5, the top 4
// a third that takes urgency <= 2. That is 32 predicates, two per node,
// and an item matches 1 to 3 nodes. Items are drawn from the subscribed
// ranks only. The first selRanks*publishers items are the readiness probes:
// one per subscribed subject and publisher, at the urgency every
// subscriber of the subject takes.
const (
	selNodes    = 16
	selSubjects = 64
	selRanks    = 20
	selBodyLen  = 200
)

type selSlot struct {
	rank, maxUrgency int
}

// selSlots lists the 32 predicates; slot k belongs to node selNode(k).
func selSlots() []selSlot {
	var slots []selSlot
	for r := 0; r < selRanks; r++ {
		slots = append(slots, selSlot{r, 8})
	}
	for r := 0; r < 8; r++ {
		slots = append(slots, selSlot{r, 5})
	}
	for r := 0; r < 4; r++ {
		slots = append(slots, selSlot{r, 2})
	}
	return slots
}

// selNode spreads consecutive slots over the zones: 5 is coprime with 16,
// so slots 0..15 and 16..31 each visit every node once, and the (up to
// three) subscribers of one rank land on different nodes.
func selNode(slot int) int { return (5*slot + 3) % selNodes }

func genSelective(seed int64, nodes int, phases []int) (*input, error) {
	n := 0
	for _, m := range phases {
		n += m
	}
	if nodes != selNodes {
		return nil, fmt.Errorf("selective is laid out for %d nodes, not %d", selNodes, nodes)
	}
	rng := rand.New(rand.NewSource(seed))
	subject := func(rank int) string { return fmt.Sprintf("bench/s%02d", rank) }

	type pred struct {
		subject    string
		maxUrgency int
	}
	preds := make([][]pred, nodes)
	in := newInput(nodes)
	for k, s := range selSlots() {
		node := selNode(k)
		preds[node] = append(preds[node], pred{subject(s.rank), s.maxUrgency})
		in.queries[node] = append(in.queries[node],
			fmt.Sprintf("subjects = '%s' AND urgency <= %d", subject(s.rank), s.maxUrgency))
	}

	// Cumulative Zipf(1.0) weights over the subscribed ranks.
	cum := make([]float64, selRanks)
	total := 0.0
	for r := range cum {
		total += 1 / float64(r+1)
		cum[r] = total
	}
	body := strings.Repeat("x", selBodyLen)
	in.items = make([]*newswire.Item, n)
	for g := range in.items {
		rank, urgency := g/publishers, 1
		if g >= selRanks*publishers {
			target := rng.Float64() * total
			for rank = 0; cum[rank] < target; rank++ {
			}
			urgency = 1 + rng.Intn(8)
		}
		it := &newswire.Item{
			Headline: fmt.Sprintf("headline %d", g),
			Body:     body,
			Subjects: []string{subject(rank)},
			Urgency:  urgency,
		}
		stamp(it, g)
		in.items[g] = it
	}
	in.want = func(g, node int) bool {
		it := in.items[g]
		for _, p := range preds[node] {
			if it.Subjects[0] == p.subject && it.Urgency <= p.maxUrgency {
				return true
			}
		}
		return false
	}
	in.hashAll()
	return in, nil
}

// simSubjects is the vocabulary of sim_churn. Every member of a leaf zone
// subscribes to the same two subjects, chosen by a fixed rule, so each
// subject has an eighth of the nodes behind it whatever the seed. The
// subscriptions are per zone because a node caches only what it subscribes
// to: a returning victim can recover what it missed from a zone peer only
// if that peer wanted the same items.
const simSubjects = 16

func simSubject(k int) string { return fmt.Sprintf("bench/c%02d", k) }

func simSubscription(node int) [2]int {
	zone := node / simBranching
	a := zone % simSubjects
	b := (a + 1 + (zone/simSubjects)%(simSubjects-1)) % simSubjects
	return [2]int{a, b}
}

func genSim(seed int64, nodes, n int) (*input, error) {
	pool := make([]string, simSubjects)
	index := make(map[string]int, simSubjects)
	for k := range pool {
		pool[k] = simSubject(k)
		index[pool[k]] = k
	}
	items, err := articles(rand.New(rand.NewSource(seed)), []int{n}, pool)
	if err != nil {
		return nil, err
	}
	subscribed := make([][]bool, simSubjects)
	for k := range subscribed {
		subscribed[k] = make([]bool, nodes)
	}
	in := newInput(nodes)
	in.items = items
	for node := 0; node < nodes; node++ {
		for _, k := range simSubscription(node) {
			subscribed[k][node] = true
			in.subjects[node] = append(in.subjects[node], pool[k])
		}
	}
	of := make([]uint8, n)
	for g, it := range items {
		of[g] = uint8(index[it.Subjects[0]])
	}
	in.want = func(g, node int) bool { return subscribed[of[g]][node] }
	in.hashAll()
	return in, nil
}

// lockedSource makes a rand.Rand safe to share: a live node draws from its
// Config.Rand on the gossip ticker and on every transport reader
// goroutine, and math/rand's own source is not safe for that.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func newLockedRand(seed int64) *rand.Rand {
	return rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)})
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}
