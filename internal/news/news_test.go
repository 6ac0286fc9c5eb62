package news

import (
	"bytes"
	"encoding/xml"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleItem() *Item {
	return &Item{
		Publisher: "reuters",
		ID:        "item-42",
		Revision:  1,
		Headline:  "Markets rally on peace hopes",
		Byline:    "By A. Reporter",
		Abstract:  "Stocks rose sharply.",
		Body:      "Full text of the article with <angle> brackets & ampersands.",
		Subjects:  []string{"business/markets", "world/europe"},
		Urgency:   4,
		Geography: "europe",
		Published: time.Date(2002, 4, 1, 9, 30, 0, 0, time.UTC),
	}
}

func TestKeys(t *testing.T) {
	it := sampleItem()
	if it.Key() != "reuters/item-42#1" {
		t.Errorf("Key() = %q", it.Key())
	}
	if it.SeriesKey() != "reuters/item-42" {
		t.Errorf("SeriesKey() = %q", it.SeriesKey())
	}
	other := *it
	other.Revision = 2
	if other.Key() == it.Key() {
		t.Error("revisions must have distinct keys")
	}
	if other.SeriesKey() != it.SeriesKey() {
		t.Error("revisions must share a series key")
	}
}

func TestValidate(t *testing.T) {
	if err := sampleItem().Validate(); err != nil {
		t.Fatalf("sample item invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Item)
	}{
		{"missing publisher", func(it *Item) { it.Publisher = "" }},
		{"publisher with slash", func(it *Item) { it.Publisher = "a/b" }},
		{"publisher with hash", func(it *Item) { it.Publisher = "a#b" }},
		{"missing id", func(it *Item) { it.ID = "" }},
		{"id with space", func(it *Item) { it.ID = "a b" }},
		{"negative revision", func(it *Item) { it.Revision = -1 }},
		{"urgency too high", func(it *Item) { it.Urgency = 9 }},
		{"no subjects", func(it *Item) { it.Subjects = nil }},
		{"empty subject", func(it *Item) { it.Subjects = []string{""} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			it := sampleItem()
			tt.mutate(it)
			if err := it.Validate(); err == nil {
				t.Errorf("%s: Validate() = nil, want error", tt.name)
			}
		})
	}
}

func TestNITFRoundTrip(t *testing.T) {
	it := sampleItem()
	data, err := MarshalNITF(it)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<nitf") {
		t.Fatalf("output does not look like NITF: %s", data[:60])
	}
	got, err := UnmarshalNITF(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Publisher != it.Publisher || got.ID != it.ID || got.Revision != it.Revision {
		t.Errorf("identity lost: %+v", got)
	}
	if got.Headline != it.Headline || got.Byline != it.Byline ||
		got.Abstract != it.Abstract || got.Body != it.Body {
		t.Errorf("content lost: %+v", got)
	}
	if len(got.Subjects) != 2 || got.Subjects[0] != "business/markets" {
		t.Errorf("subjects lost: %v", got.Subjects)
	}
	if got.Urgency != 4 || got.Geography != "europe" {
		t.Errorf("metadata lost: urgency=%d geo=%q", got.Urgency, got.Geography)
	}
	if !got.Published.Equal(it.Published) {
		t.Errorf("published = %v, want %v", got.Published, it.Published)
	}
}

func TestNITFEscaping(t *testing.T) {
	it := sampleItem()
	it.Headline = `<script>"alert" & 'stuff'</script>`
	it.Body = "a < b && c > d"
	data, err := MarshalNITF(it)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalNITF(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Headline != it.Headline || got.Body != it.Body {
		t.Fatalf("escaping broke content: %q / %q", got.Headline, got.Body)
	}
}

func TestMarshalInvalidItem(t *testing.T) {
	it := sampleItem()
	it.Publisher = ""
	if _, err := MarshalNITF(it); err == nil {
		t.Fatal("marshal of invalid item should fail")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalNITF([]byte("not xml")); err == nil {
		t.Error("garbage should fail")
	}
	// Well-formed XML but invalid item (no subjects).
	bad := `<?xml version="1.0"?><nitf version="x"><head><docdata><doc-id id-string="i"/><urgency ed-urg="4"/><date.issue norm=""/><du-key version="0"/><key-list></key-list></docdata><pubdata name="p"/></head><body><body.head><hedline><hl1>h</hl1></hedline></body.head><body.content>c</body.content></body></nitf>`
	if _, err := UnmarshalNITF([]byte(bad)); err == nil {
		t.Error("item without subjects should fail validation")
	}
	// Bad date.
	badDate := strings.Replace(bad, `norm=""`, `norm="yesterday"`, 1)
	badDate = strings.Replace(badDate, "<key-list></key-list>", `<key-list><keyword key="s"/></key-list>`, 1)
	if _, err := UnmarshalNITF([]byte(badDate)); err == nil {
		t.Error("bad date should fail")
	}
}

func TestSize(t *testing.T) {
	it := sampleItem()
	small := it.Size()
	it.Body = strings.Repeat("x", 10000)
	if it.Size() <= small+9000 {
		t.Fatalf("Size() did not grow with body: %d vs %d", it.Size(), small)
	}
}

func TestSubjectsByPrefix(t *testing.T) {
	techs := SubjectsByPrefix("tech")
	if len(techs) == 0 {
		t.Fatal("no tech subjects")
	}
	for _, s := range techs {
		if !strings.HasPrefix(s, "tech/") {
			t.Errorf("subject %q not under tech/", s)
		}
	}
	if got := SubjectsByPrefix("nonexistent"); got != nil {
		t.Errorf("unknown prefix returned %v", got)
	}
}

func TestMatchesAny(t *testing.T) {
	it := sampleItem()
	if !it.MatchesAny([]string{"world/europe"}) {
		t.Error("exact subject should match")
	}
	if !it.MatchesAny([]string{"nope", "business/markets"}) {
		t.Error("any-of semantics broken")
	}
	if it.MatchesAny([]string{"tech/linux"}) {
		t.Error("absent subject matched")
	}
	if it.MatchesAny(nil) {
		t.Error("empty subscription matched")
	}
}

// Property: any item built from printable-ish content round-trips through
// NITF XML.
func TestQuickNITFRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		// XML cannot carry most control characters; the transport
		// payload is produced by publishers, which normalize text.
		out := make([]rune, 0, len(s))
		for _, r := range s {
			if r == '\t' || r == '\n' || r >= 0x20 && r != 0xFFFD {
				out = append(out, r)
			}
		}
		return string(out)
	}
	f := func(headline, body, subject string, urgency uint8, rev uint16) bool {
		it := &Item{
			Publisher: "quick",
			ID:        "id",
			Revision:  int(rev),
			Headline:  sanitize(headline),
			Body:      sanitize(body),
			Subjects:  []string{"s-" + sanitize(strings.ReplaceAll(subject, " ", "_"))},
			Urgency:   int(urgency % 9),
			Published: time.Unix(1017619200, 0).UTC(),
		}
		if it.Subjects[0] == "s-" {
			it.Subjects[0] = "s-x"
		}
		data, err := MarshalNITF(it)
		if err != nil {
			return false
		}
		got, err := UnmarshalNITF(data)
		if err != nil {
			return false
		}
		return got.Headline == it.Headline && got.Body == it.Body &&
			got.Revision == it.Revision && got.Urgency == it.Urgency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: UnmarshalNITF never panics on arbitrary byte input.
func TestQuickUnmarshalRobustness(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = UnmarshalNITF(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The oracle: the reflection-driven encoding/xml struct codec the product
// used before the hand-written one. It stays here, and only here, as the
// reference the differential tests compare against.
type oracleDoc struct {
	XMLName xml.Name `xml:"nitf"`
	Version string   `xml:"version,attr"`
	Head    struct {
		DocData struct {
			DocID struct {
				IDString string `xml:"id-string,attr"`
			} `xml:"doc-id"`
			Urgency struct {
				EdUrg int `xml:"ed-urg,attr"`
			} `xml:"urgency"`
			DateIssue struct {
				Norm string `xml:"norm,attr"`
			} `xml:"date.issue"`
			DuKey struct {
				Version int `xml:"version,attr"`
			} `xml:"du-key"`
			KeyList struct {
				Keywords []oracleKeyword `xml:"keyword"`
			} `xml:"key-list"`
			Location struct {
				Region string `xml:"region,attr,omitempty"`
			} `xml:"location,omitempty"`
		} `xml:"docdata"`
		PubData struct {
			Name string `xml:"name,attr"`
		} `xml:"pubdata"`
	} `xml:"head"`
	Body struct {
		Head struct {
			Hedline struct {
				HL1 string `xml:"hl1"`
			} `xml:"hedline"`
			Byline   string `xml:"byline,omitempty"`
			Abstract string `xml:"abstract,omitempty"`
		} `xml:"body.head"`
		Content string `xml:"body.content"`
	} `xml:"body"`
}

type oracleKeyword struct {
	Key string `xml:"key,attr"`
}

func oracleMarshalNITF(it *Item) ([]byte, error) {
	if err := it.Validate(); err != nil {
		return nil, err
	}
	var doc oracleDoc
	doc.Version = nitfVersion
	dd := &doc.Head.DocData
	dd.DocID.IDString = it.ID
	dd.Urgency.EdUrg = it.Urgency
	dd.DateIssue.Norm = it.Published.UTC().Format(time.RFC3339Nano)
	dd.DuKey.Version = it.Revision
	dd.Location.Region = it.Geography
	for _, s := range it.Subjects {
		dd.KeyList.Keywords = append(dd.KeyList.Keywords, oracleKeyword{Key: s})
	}
	doc.Head.PubData.Name = it.Publisher
	doc.Body.Head.Hedline.HL1 = it.Headline
	doc.Body.Head.Byline = it.Byline
	doc.Body.Head.Abstract = it.Abstract
	doc.Body.Content = it.Body
	out, err := xml.Marshal(&doc)
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

func oracleUnmarshalNITF(data []byte) (*Item, error) {
	var doc oracleDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	dd := &doc.Head.DocData
	it := &Item{
		Publisher: doc.Head.PubData.Name,
		ID:        dd.DocID.IDString,
		Revision:  dd.DuKey.Version,
		Headline:  doc.Body.Head.Hedline.HL1,
		Byline:    doc.Body.Head.Byline,
		Abstract:  doc.Body.Head.Abstract,
		Body:      doc.Body.Content,
		Urgency:   dd.Urgency.EdUrg,
		Geography: dd.Location.Region,
	}
	for _, kw := range dd.KeyList.Keywords {
		it.Subjects = append(it.Subjects, kw.Key)
	}
	if dd.DateIssue.Norm != "" {
		ts, err := time.Parse(time.RFC3339Nano, dd.DateIssue.Norm)
		if err != nil {
			return nil, err
		}
		it.Published = ts
	}
	if err := it.Validate(); err != nil {
		return nil, err
	}
	return it, nil
}

func itemsEqual(a, b *Item) bool {
	return a.Publisher == b.Publisher && a.ID == b.ID && a.Revision == b.Revision &&
		a.Headline == b.Headline && a.Byline == b.Byline && a.Abstract == b.Abstract &&
		a.Body == b.Body && slices.Equal(a.Subjects, b.Subjects) &&
		a.Urgency == b.Urgency && a.Geography == b.Geography &&
		a.Published.Equal(b.Published)
}

// checkDecode asserts that whatever the decoder accepts, the oracle accepts
// as the same item, and that the copying and the viewing entry agree. It
// returns the decoded item, nil when rejected.
func checkDecode(t *testing.T, doc []byte) *Item {
	t.Helper()
	got, err := UnmarshalNITF(doc)
	viewed, verr := ViewNITF(doc)
	if (err == nil) != (verr == nil) || err == nil && !itemsEqual(got, viewed) {
		t.Fatalf("UnmarshalNITF and ViewNITF disagree on %q:\n copy %+v (err %v)\n view %+v (err %v)", doc, got, err, viewed, verr)
	}
	if err != nil {
		return nil
	}
	want, err := oracleUnmarshalNITF(doc)
	if err != nil {
		t.Fatalf("decoder accepted what the oracle rejects (%v):\n%q", err, doc)
	}
	if !itemsEqual(got, want) {
		t.Fatalf("decoder and oracle disagree on %q:\n got %+v\nwant %+v", doc, got, want)
	}
	return got
}

// checkEncode asserts that the encoder's bytes equal the oracle's and that
// they decode back to the item, exactly.
func checkEncode(t *testing.T, it *Item) {
	t.Helper()
	got, err := MarshalNITF(it)
	want, oerr := oracleMarshalNITF(it)
	if (err != nil) != (oerr != nil) {
		t.Fatalf("encoder err %v, oracle err %v for %+v", err, oerr, it)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder and oracle bytes differ:\n got %q\nwant %q", got, want)
	}
	back := checkDecode(t, got)
	if back == nil {
		t.Fatalf("encoder output does not decode: %q", got)
	}
	// What XML cannot carry was written as U+FFFD; everything else is exact.
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			if !validXMLChar(r) {
				return '\uFFFD'
			}
			return r
		}, s)
	}
	sent := *it
	sent.ID, sent.Headline, sent.Byline = clean(it.ID), clean(it.Headline), clean(it.Byline)
	sent.Abstract, sent.Body, sent.Geography = clean(it.Abstract), clean(it.Body), clean(it.Geography)
	sent.Subjects = slices.Clone(it.Subjects)
	for i, s := range sent.Subjects {
		sent.Subjects[i] = clean(s)
	}
	if !itemsEqual(back, &sent) {
		t.Fatalf("round trip changed the item:\n got %+v\nwant %+v", back, &sent)
	}
}

// nitfItems are the content shapes that have bitten before: the generator's
// revisions end in "\n[updated]", which travels as &#xA;[updated].
func nitfItems() []*Item {
	mk := func(mutate func(*Item)) *Item {
		it := sampleItem()
		mutate(it)
		return it
	}
	return []*Item{
		sampleItem(),
		mk(func(it *Item) { it.Revision++; it.Body += "\n[updated]" }),
		mk(func(it *Item) { it.Body = "line one\r\nline two\rline three\n" }),
		mk(func(it *Item) { it.Body = "col\ta\tb"; it.Headline = "tab\there" }),
		mk(func(it *Item) { it.Body = `<a href="x">'q' & co</a>`; it.Abstract = `"<&>'` }),
		mk(func(it *Item) { it.Body = "data ]]> more ]] > ]]&gt;" }),
		mk(func(it *Item) { it.Body = "emoji \U0001F4F0 and \uFFFD and \u00e9" }),
		mk(func(it *Item) { it.Body = "bad \xff utf8 \x00 nul \x1b esc \uFFFE"; it.Headline = "\xc3" }),
		mk(func(it *Item) { it.Byline, it.Abstract, it.Geography, it.Headline, it.Body = "", "", "", "", "" }),
		mk(func(it *Item) {
			it.ID = `a"b<c>&'`
			it.Subjects = []string{`s"1`, "s\n2", "s<3>"}
			it.Geography = "a&b"
		}),
		mk(func(it *Item) { it.Published = time.Date(2002, 4, 1, 9, 30, 0, 123456789, time.FixedZone("x", 3600)) }),
		mk(func(it *Item) { it.Published = time.Time{} }),
	}
}

// nitfDocs are hand-written documents: ok says whether the decoder must
// accept them, and then as sampleItem (with body for its Body, if set).
var nitfDocs = []struct {
	name string
	ok   bool
	doc  string
	body string
}{
	{"reordered attributes, single quotes, self-closing, unknown elements, comment, PI", true,
		`<?xml version='1.0' encoding="utf-8" standalone="yes"?>
<!-- wire copy --><?render fast?>
<nitf xmlns="http://iptc.org/nitf" change.date="x" version="-//IPTC//DTD NITF 3.0//EN">
 <head>
  <title>ignored</title>
  <pubdata extra="1" name='reuters' />
  <docdata>
   <du-key generation="2" version="1"/><doc-id regsrc="r" id-string="item-42"/>
   <date.issue norm="2002-04-01T09:30:00Z"/><urgency ed-urg="4"></urgency>
   <location region="europe"><city>ignored &amp; skipped</city></location>
   <key-list><keyword key="business/markets"/><!-- two --><keyword key='world/europe'></keyword></key-list>
  </docdata>
 </head>
 <body>
  <body.head><hedline><hl1>Markets rally<!-- split --> on peace hopes</hl1><hl2>ignored</hl2></hedline>
   <byline>By A. Reporter</byline><abstract>Stocks <em>very</em>rose sharply.</abstract></body.head>
  <body.content>Full text of the article with &lt;angle&#62; brackets &#x26; ampersands.</body.content>
 </body>
</nitf> trailing bytes are not read`, ""},
	{"CRLF and CR fold to LF, references do not", true,
		"<nitf><head><docdata><doc-id id-string=\"item-42\"/><urgency ed-urg=\"4\"/>" +
			"<date.issue norm=\"2002-04-01T09:30:00Z\"/><du-key version=\"1\"/>" +
			"<key-list><keyword key=\"business/markets\"/><keyword key=\"world/europe\"/></key-list>" +
			"<location region=\"europe\"/></docdata><pubdata name=\"reuters\"/></head><body><body.head>" +
			"<hedline><hl1>Markets rally on peace hopes</hl1></hedline><byline>By A. Reporter</byline>" +
			"<abstract>Stocks rose sharply.</abstract></body.head>" +
			"<body.content>a\r\nb\rc&#xD;&#xA;d\r&#xA;</body.content></body></nitf>",
		"a\nb\nc\r\nd\n\n"},
	{"later element and attribute win, keywords add up", true,
		`<nitf><head><docdata><doc-id id-string="old"/><doc-id id-string="older" id-string="item-42"/><doc-id/>
<urgency ed-urg="4"/><date.issue norm="2002-04-01T09:30:00Z"/><du-key version="1"/>
<key-list><keyword key="business/markets"/></key-list><key-list><keyword key="world/europe"/></key-list>
<location region="europe"/></docdata><pubdata name="reuters"/></head><body><body.head>
<hedline><hl1>first</hl1><hl1>Markets rally on peace hopes</hl1></hedline><byline>By A. Reporter</byline>
<abstract>Stocks rose sharply.</abstract></body.head>
<body.content>Full text of the article with &lt;angle> brackets &amp; ampersands.</body.content></body></nitf>`, ""},
	{"empty key-list", false, handDoc(`<key-list></key-list>`, `norm="2002-04-01T09:30:00Z"`, "c"), ""},
	{"keyword without key", false, handDoc(`<key-list><keyword/></key-list>`, `norm=""`, "c"), ""},
	{"bad date.issue", false, handDoc(`<key-list><keyword key="s"/></key-list>`, `norm="yesterday"`, "c"), ""},
	{"non-integer urgency", false, strings.Replace(handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "c"), `ed-urg="4"`, `ed-urg="four"`, 1), ""},
	{"DOCTYPE", false, `<!DOCTYPE nitf SYSTEM "nitf.dtd">` + handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "c"), ""},
	{"custom entity", false, handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "&nbsp;"), ""},
	{"CDATA", false, handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "<![CDATA[c]]>"), ""},
	{"raw ]]>", false, handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "a]]>b"), ""},
	{"namespace prefix", false, handDoc(`<key-list><n:keyword xmlns:n="u" key="s"/></key-list>`, `norm=""`, "c"), ""},
	{"non-UTF-8 declaration", false, `<?xml version="1.0" encoding="ISO-8859-1"?>` + handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "c"), ""},
	{"XML 1.1", false, `<?xml version="1.1"?>` + handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "c"), ""},
	{"control character", false, handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "a\x01b"), ""},
	{"reference to an illegal character", false, handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "&#xFFFE;"), ""},
	{"invalid UTF-8", false, handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "a\xffb"), ""},
	{"mismatched end tag", false, handDoc(`<key-list><keyword key="s"></key-list></keyword>`, `norm=""`, "c"), ""},
	{"unquoted attribute", false, handDoc(`<key-list><keyword key=s/></key-list>`, `norm=""`, "c"), ""},
	{"< in attribute", false, handDoc(`<key-list><keyword key="a<b"/></key-list>`, `norm=""`, "c"), ""},
	{"unclosed root", false, strings.TrimSuffix(handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, "c"), "</nitf>"), ""},
	{"wrong root", false, `<news/>`, ""},
	{"nested too deep", false, handDoc(`<key-list><keyword key="s"/></key-list>`, `norm=""`, strings.Repeat("<p>", 40)+strings.Repeat("</p>", 40)), ""},
}

// handDoc is a minimal valid document around the three parts the cases vary.
func handDoc(keyList, norm, content string) string {
	return `<?xml version="1.0"?><nitf version="x"><head><docdata><doc-id id-string="i"/><urgency ed-urg="4"/><date.issue ` +
		norm + `/><du-key version="0"/>` + keyList + `</docdata><pubdata name="p"/></head><body><body.head><hedline><hl1>h</hl1></hedline></body.head><body.content>` +
		content + `</body.content></body></nitf>`
}

// TestNITFHandWrittenDocuments pins which of nitfDocs decode, and to what;
// the seed run of FuzzNITFDifferential covers nitfItems.
func TestNITFHandWrittenDocuments(t *testing.T) {
	for _, tc := range nitfDocs {
		got := checkDecode(t, []byte(tc.doc))
		if (got != nil) != tc.ok {
			_, err := UnmarshalNITF([]byte(tc.doc))
			t.Errorf("%s: accepted = %v (err %v), want %v", tc.name, got != nil, err, tc.ok)
			continue
		}
		want := sampleItem()
		if tc.body != "" {
			want.Body = tc.body
		}
		if tc.ok && !itemsEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// FuzzNITFDifferential holds the hand-written codec to the encoding/xml
// oracle from both sides: doc is decoded by both (whatever the decoder
// accepts, the oracle must accept as the same item), and the remaining
// arguments make an item that both encode (bytes equal; the bytes decode
// back to the item).
func FuzzNITFDifferential(f *testing.F) {
	add := func(doc []byte, it *Item) {
		f.Add(doc, it.ID, it.Headline, it.Byline, it.Abstract, it.Body, strings.Join(it.Subjects, " "),
			it.Geography, it.Revision, it.Urgency, it.Published.UnixNano())
	}
	for _, it := range nitfItems() {
		doc, err := MarshalNITF(it)
		if err != nil {
			f.Fatal(err)
		}
		add(doc, it)
	}
	for _, tc := range nitfDocs {
		add([]byte(tc.doc), sampleItem())
	}
	f.Fuzz(func(t *testing.T, doc []byte, id, headline, byline, abstract, body, subjects, geo string, rev, urgency int, nanos int64) {
		checkDecode(t, doc)
		checkEncode(t, &Item{
			Publisher: "fuzz", ID: id, Revision: rev, Headline: headline, Byline: byline,
			Abstract: abstract, Body: body, Subjects: strings.Split(subjects, " "), Urgency: urgency,
			Geography: geo, Published: time.Unix(0, nanos),
		})
	})
}

// TestNITFDifferentialMutations applies a few token-level edits to encoded
// items — fragments inserted between tags, tokens dropped, doubled and
// swapped — so that most documents stay well formed but off the encoder's
// one shape, and holds the decoder to the oracle on each.
func TestNITFDifferentialMutations(t *testing.T) {
	fragments := []string{
		"text", " ", "\n\t", "\r\n", "\r", "&amp;", "&lt;&gt;&apos;&quot;", "&#xA;", "&#10;", "&#x9;", "&#xD;\n",
		"&bogus;", "&#xD800;", "&#x110000;", "&#0;", "&#xFFFE;", "&#;", "&#x;", "&amp", "&#X41;", "&#00000065;",
		"]]>", "]]", ">", "\x01", "é", "\U0001F4F0", "\xff", "\uFFFE", "\uFEFF",
		"<!-- c -->", "<!-- a -- b -->", "<!--->", "<?pi x?>", "<?xml version=\"1.0\"?>", "<?xml version='1.1'?>",
		"<?xml encoding='latin1'?>", "<?xml version=\"1.0\" encoding=\"Utf-8\"?>", "<?x\xff?>", "<?p:q ?>",
		"<![CDATA[x]]>", "<!DOCTYPE nitf>", "<x/>", "<x a='1' a=\"2\">y</x>", "<x><hl1>z</hl1></x>", "<n:x/>", "<x n:a='1'/>",
		"<hl1>again</hl1>", "<byline/>", "<keyword key='more'/>", "<keyword/>", "<doc-id/>", "<doc-id id-string='other'/>",
		"<du-key version='7'/>", "<du-key version=' 7'/>", "<du-key version=''/>", "<du-key version='+7'/>", "<urgency ed-urg='9'/>",
		"<date.issue norm=''/>", "<date.issue norm='2002-04-01T09:30:00+01:00'/>", "<date.issue norm='soon'/>",
		"<location region='a\r\nb'/>", "<location region='a\tb&#x9;c'/>", "<location region='a]]>b'/>", "<location region='a<b'/>",
		"<location region=x/>", "<location region/>", "<location  region = 'x' />", "<location\nregion='x'\n></location >",
		"<1x/>", "<x", "</x>", "</nitf>", "<nitf>", "<é/>", "<x é='1'/>", "<-x/>", "<x.y-z_1 a.b-c_1='1'/>", "< x/>", "<x / >",
	}
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for _, it := range nitfItems() {
		doc, err := MarshalNITF(it)
		if err != nil {
			t.Fatal(err)
		}
		// Split into tags and text runs.
		var tokens []string
		for rest := string(doc); rest != ""; {
			end := strings.IndexByte(rest, '>') + 1
			if rest[0] != '<' {
				end = strings.IndexByte(rest, '<')
			}
			tokens, rest = append(tokens, rest[:end]), rest[end:]
		}
		for n := 0; n < 400; n++ {
			mutant := slices.Clone(tokens)
			for edits := 1 + rng.Intn(3); edits > 0; edits-- {
				i, j := rng.Intn(len(mutant)), rng.Intn(len(mutant))
				switch rng.Intn(6) {
				case 0:
					mutant = slices.Delete(mutant, i, i+1)
				case 1:
					mutant = slices.Insert(mutant, i, mutant[j])
				case 2:
					mutant[i], mutant[j] = mutant[j], mutant[i]
				default:
					mutant = slices.Insert(mutant, i, fragments[rng.Intn(len(fragments))])
				}
			}
			if checkDecode(t, []byte(strings.Join(mutant, ""))) != nil {
				accepted++
			}
		}
	}
	if accepted < 500 {
		t.Fatalf("only %d mutants accepted: the test no longer exercises the decoder", accepted)
	}
	t.Logf("%d mutants accepted", accepted)
}
