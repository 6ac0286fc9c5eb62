// Package news models news items and their metadata the way the NewsWire
// prototype does (paper §7): an NITF-like XML format carrying the industry
// metadata that drives subscriptions, duplicate removal, cache management
// and revision fusion — unique item IDs per publisher, revision history,
// subject categories, urgency, and geography.
package news

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Item is one news item revision.
type Item struct {
	// Publisher is the originating news source ("reuters", "slashdot").
	Publisher string
	// ID uniquely identifies the item within the publisher's namespace.
	ID string
	// Revision numbers successive versions of the same item, from 0.
	Revision int
	// Headline is the display headline.
	Headline string
	// Byline credits the author.
	Byline string
	// Abstract is the summary shown on index pages.
	Abstract string
	// Body is the article text.
	Body string
	// Subjects are the subscription subjects the item matches, e.g.
	// "tech/linux" — the paper's "interest areas".
	Subjects []string
	// Urgency is the NITF editorial urgency, 1 (flash) to 8 (routine).
	Urgency int
	// Geography is a region hint used for zone-scoped publication (§8),
	// e.g. "asia".
	Geography string
	// Published is the publication instant of this revision.
	Published time.Time
}

// UrgencyMax bounds the NITF editorial urgency scale; Validate enforces
// 0..UrgencyMax. The domain is finite so subscription predicates over
// urgency compile to exact routing covers (internal/query).
const UrgencyMax = 8

// MetadataFields lists the item-metadata fields exposed to subscription
// predicates, matching the attribute row pubsub.ItemMetadataRow builds
// for each envelope. Sorted.
func MetadataFields() []string {
	return []string{"item_id", "published", "publisher", "revision", "subjects", "urgency"}
}

// Key returns the item's global deduplication key (§9: items are uniquely
// identified by the publisher as part of the metadata).
func (it *Item) Key() string {
	return fmt.Sprintf("%s/%s#%d", it.Publisher, it.ID, it.Revision)
}

// SeriesKey identifies the revision chain the item belongs to, ignoring
// the revision number. The cache fuses revisions within a series.
func (it *Item) SeriesKey() string {
	return it.Publisher + "/" + it.ID
}

// Validate checks the invariants the rest of the system relies on.
func (it *Item) Validate() error {
	if it.Publisher == "" {
		return fmt.Errorf("news: item missing publisher")
	}
	if strings.ContainsAny(it.Publisher, "/# \t\n") {
		return fmt.Errorf("news: publisher %q contains reserved characters", it.Publisher)
	}
	if it.ID == "" {
		return fmt.Errorf("news: item missing id")
	}
	if strings.ContainsAny(it.ID, "/# \t\n") {
		return fmt.Errorf("news: item id %q contains reserved characters", it.ID)
	}
	if it.Revision < 0 {
		return fmt.Errorf("news: negative revision %d", it.Revision)
	}
	if it.Urgency < 0 || it.Urgency > UrgencyMax {
		return fmt.Errorf("news: urgency %d outside 0..%d", it.Urgency, UrgencyMax)
	}
	if len(it.Subjects) == 0 {
		return fmt.Errorf("news: item %s has no subjects", it.Key())
	}
	for _, s := range it.Subjects {
		if s == "" {
			return fmt.Errorf("news: item %s has an empty subject", it.Key())
		}
	}
	return nil
}

// Size returns the approximate byte size of the item's content, used by
// the pull-redundancy experiment (E2) to count transferred bytes.
func (it *Item) Size() int {
	n := len(it.Headline) + len(it.Byline) + len(it.Abstract) + len(it.Body) +
		len(it.Publisher) + len(it.ID) + len(it.Geography) + 16
	for _, s := range it.Subjects {
		n += len(s)
	}
	return n
}

// Standard subject vocabulary used by the examples and workload
// generators. Subjects are hierarchical slash-separated categories in the
// spirit of the IPTC subject codes NITF references.
var StandardSubjects = []string{
	"tech/linux", "tech/security", "tech/hardware", "tech/internet",
	"tech/software", "tech/science",
	"world/asia", "world/europe", "world/americas", "world/africa",
	"world/middle-east",
	"business/markets", "business/companies", "business/economy",
	"sports/soccer", "sports/baseball", "sports/olympics",
	"politics/elections", "politics/policy",
	"culture/film", "culture/music", "culture/books",
}

// SubjectsByPrefix returns the standard subjects under a top-level
// category ("tech" -> tech/*), sorted.
func SubjectsByPrefix(prefix string) []string {
	var out []string
	for _, s := range StandardSubjects {
		if strings.HasPrefix(s, prefix+"/") {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// MatchesAny reports whether the item carries at least one of the given
// subjects — the leaf node's final exact-match test that discards Bloom
// false positives (§6).
func (it *Item) MatchesAny(subjects []string) bool {
	for _, want := range subjects {
		for _, have := range it.Subjects {
			if have == want {
				return true
			}
		}
	}
	return false
}
