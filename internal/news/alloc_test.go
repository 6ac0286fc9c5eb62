package news_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
// by the fan-out. A decode is the item, its subject slice and one string
// per rewritten run (the revision's body); the copying entry adds the copy.
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
		if n := testing.AllocsPerRun(100, func() { _, _ = news.UnmarshalNITF(data) }); n > 4 {
			t.Errorf("UnmarshalNITF(revision %d) allocates %v objects, budget 4", it.Revision, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = news.ViewNITF(data) }); n > 3 {
			t.Errorf("ViewNITF(revision %d) allocates %v objects, budget 3", it.Revision, n)
		}
	}
}

// TestUnmarshalNITFCopies: the copying entry's item survives its input
// being overwritten; the view entry's strings are the input's bytes.
func TestUnmarshalNITFCopies(t *testing.T) {
	_, revision := wireServiceSamples(t)
	data, err := news.MarshalNITF(revision)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := news.UnmarshalNITF(data)
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := news.ViewNITF(data)
	if err != nil {
		t.Fatal(err)
	}
	want := *copied
	want.Subjects = slices.Clone(copied.Subjects)
	headline := viewed.Headline
	for i := range data {
		data[i] = 'z'
	}
	if !reflect.DeepEqual(copied, &want) {
		t.Errorf("UnmarshalNITF's item changed with its input:\n got %+v\nwant %+v", copied, &want)
	}
	if viewed.Headline == want.Headline || headline != strings.Repeat("z", len(headline)) {
		t.Errorf("ViewNITF's headline %q does not view its input", viewed.Headline)
	}
}
