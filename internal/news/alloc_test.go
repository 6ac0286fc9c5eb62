package news_test

import (
	"math/rand"
	"testing"
	"time"

	"newswire/internal/news"
	"newswire/internal/workload"
)

// wireServiceSamples returns the first article of the wire-service profile
// and its first revision, whose body ends in "\n[updated]" and so takes the
// decoder's rewriting path.
func wireServiceSamples(t testing.TB) (first, revision *news.Item) {
	t.Helper()
	gen, err := workload.NewArticleGen(workload.WireServiceProfile("reuters"), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2002, 4, 1, 9, 30, 0, 0, time.UTC)
	first = gen.Next(now)
	for revision == nil {
		if it := gen.Next(now); it.Revision > 0 {
			revision = it
		}
	}
	return first, revision
}

// TestNITFAllocationBudget guards the codec's place in the fan-out budget:
// every subscribed node decodes every item, so objects per decode multiply
// by the fan-out.
func TestNITFAllocationBudget(t *testing.T) {
	first, revision := wireServiceSamples(t)
	for _, it := range []*news.Item{first, revision} {
		data, err := news.MarshalNITF(it)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = news.MarshalNITF(it) }); n > 4 {
			t.Errorf("MarshalNITF(revision %d) allocates %v objects, budget 4", it.Revision, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = news.UnmarshalNITF(data) }); n > 16 {
			t.Errorf("UnmarshalNITF(revision %d) allocates %v objects, budget 16", it.Revision, n)
		}
	}
}
