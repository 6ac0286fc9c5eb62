package news

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
	"unsafe"
)

// The NITF codec: MarshalNITF writes one fixed document shape, after NITF
// 3.0's structure (nitfSchema below is its element tree), and UnmarshalNITF
// is a single-pass scanner for the XML subset that shape and hand-written
// equivalents need. DESIGN.md §8 has the grammar. encoding/xml is not used:
// its reflection cost 200 heap objects per decode, times the fan-out.

const (
	nitfHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"
	// nitfVersion is the DTD identifier stamped on encoded items.
	nitfVersion = "-//IPTC//DTD NITF 3.0//EN"
)

// MarshalNITF encodes the item as NITF-like XML. Characters XML 1.0 cannot
// carry (most control characters, invalid UTF-8) are written as U+FFFD.
func MarshalNITF(it *Item) ([]byte, error) {
	if err := it.Validate(); err != nil {
		return nil, err
	}
	// Fixed markup plus content, with slack for the escapes of ordinary
	// prose; heavier escaping grows the buffer once.
	size := it.Size()
	b := make([]byte, 0, 512+32*len(it.Subjects)+size+size/16)
	b = append(b, nitfHeader+`<nitf version="`+nitfVersion+`"><head><docdata><doc-id id-string="`...)
	b = appendEscaped(b, it.ID)
	b = append(b, `"></doc-id><urgency ed-urg="`...)
	b = strconv.AppendInt(b, int64(it.Urgency), 10)
	b = append(b, `"></urgency><date.issue norm="`...)
	b = it.Published.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `"></date.issue><du-key version="`...)
	b = strconv.AppendInt(b, int64(it.Revision), 10)
	b = append(b, `"></du-key><key-list>`...)
	for _, s := range it.Subjects {
		b = append(b, `<keyword key="`...)
		b = appendEscaped(b, s)
		b = append(b, `"></keyword>`...)
	}
	b = append(b, `</key-list><location`...)
	if it.Geography != "" {
		b = append(b, ` region="`...)
		b = appendEscaped(b, it.Geography)
		b = append(b, '"')
	}
	b = append(b, `></location></docdata><pubdata name="`...)
	b = appendEscaped(b, it.Publisher)
	b = append(b, `"></pubdata></head><body><body.head><hedline><hl1>`...)
	b = appendEscaped(b, it.Headline)
	b = append(b, `</hl1></hedline>`...)
	if it.Byline != "" {
		b = append(b, `<byline>`...)
		b = appendEscaped(b, it.Byline)
		b = append(b, `</byline>`...)
	}
	if it.Abstract != "" {
		b = append(b, `<abstract>`...)
		b = appendEscaped(b, it.Abstract)
		b = append(b, `</abstract>`...)
	}
	b = append(b, `</body.head><body.content>`...)
	b = appendEscaped(b, it.Body)
	b = append(b, `</body.content></body></nitf>`...)
	return b, nil
}

// appendEscaped appends s as XML character data or attribute value. Quotes,
// tabs and line ends are written as numeric references in both positions,
// so a value survives attribute-value normalisation and a body's "\r\n"
// survives line-end folding.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if c := s[i]; c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>' {
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if validXMLChar(r) && (r != utf8.RuneError || width > 1) {
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, s[last:i-width]...)
		b = append(b, esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// validXMLChar reports whether r is in XML 1.0's Char production.
func validXMLChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// UnmarshalNITF decodes an item from the NITF subset of XML 1.0:
//
//   - UTF-8 only; an <?xml?> declaration may say version 1.0 and encoding
//     UTF-8, nothing else. Processing instructions and comments are skipped
//     wherever they appear.
//   - The first element must be <nitf>; decoding stops at its end tag.
//     Elements are matched by name and position in the tree above; unknown
//     elements (and anything nested in a text element) are skipped with
//     their content, unknown attributes are ignored. Attributes come in any
//     order, in single or double quotes; <x/> equals <x></x>. When an
//     element or attribute repeats, the last one wins, except that every
//     <keyword> adds a subject.
//   - Text and attribute values may use &lt; &gt; &amp; &apos; &quot; and
//     decimal or hex character references; an unescaped "\r\n" or "\r"
//     reads as "\n". Names are ASCII letters, digits, '_', '.' and '-'.
//   - Rejected as errors: <!DOCTYPE>, <![CDATA[ and every other "<!"
//     construct but comments, so no custom entities; namespace prefixes and
//     non-ASCII names; characters outside XML 1.0's range, raw or by
//     reference; "]]>" in text; mismatched, unclosed or over-deep (32)
//     elements; a non-integer ed-urg or du-key version; a date.issue norm
//     that is neither empty nor RFC 3339.
//
// Every document this function accepts, encoding/xml decodes to the same
// item; the reverse does not hold.
//
// The item does not alias data: the decoder converts data to a string once
// and the item's strings are substrings of that copy, except those it had
// to rewrite.
func UnmarshalNITF(data []byte) (*Item, error) { return decodeNITF(string(data)) }

// ViewNITF is UnmarshalNITF without the copy: the item's strings view data
// itself, except those the decoder had to rewrite (an entity, a CR), so
// data must never be written again. pubsub.DecodeItem uses it on sealed
// envelope payloads, which nobody writes (wire.ItemEnvelope).
func ViewNITF(data []byte) (*Item, error) { return decodeNITF(viewString(data)) }

// viewString returns b's bytes as a string without copying them; b must
// never be written again.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// itemBlock is a decoded item with inline room for its first subjects, so
// a decode allocates one object for both. The room holds one subject: an
// item (192 B) and its room fill the 208-byte size class that the item and
// a separate one-subject slice used to take as two objects. A longer list
// grows past the room.
type itemBlock struct {
	it   Item
	room [1]string
}

func decodeNITF(src string) (*Item, error) {
	b := &itemBlock{}
	b.it.Subjects = b.room[:0]
	d := nitfDecoder{src: src, it: &b.it}
	if err := d.document(); err != nil {
		return nil, fmt.Errorf("news: unmarshal: offset %d: %w", d.pos, err)
	}
	if err := d.it.Validate(); err != nil {
		return nil, err
	}
	return d.it, nil
}

// nitfNode names the elements the decoder acts on.
type nitfNode uint8

const (
	nodeOther nitfNode = iota // unknown element: validated, then ignored
	nodeNITF
	nodeHead
	nodeDocdata
	nodeDocID
	nodeUrgency
	nodeDateIssue
	nodeDuKey
	nodeKeyList
	nodeKeyword
	nodeLocation
	nodePubdata
	nodeBody
	nodeBodyHead
	nodeHedline
	nodeHL1 // the text elements come last, see isText
	nodeByline
	nodeAbstract
	nodeContent
)

// isText reports whether the element's character data is an item field.
func (n nitfNode) isText() bool { return n >= nodeHL1 }

// nitfSchema is the element tree: an element is known only directly under
// its parent. attr is the one attribute read from it.
var nitfSchema = [...]struct {
	parent nitfNode
	name   string
	node   nitfNode
	attr   string
}{
	{nodeNITF, "head", nodeHead, ""},
	{nodeHead, "docdata", nodeDocdata, ""},
	{nodeDocdata, "doc-id", nodeDocID, "id-string"},
	{nodeDocdata, "urgency", nodeUrgency, "ed-urg"},
	{nodeDocdata, "date.issue", nodeDateIssue, "norm"},
	{nodeDocdata, "du-key", nodeDuKey, "version"},
	{nodeDocdata, "key-list", nodeKeyList, ""},
	{nodeKeyList, "keyword", nodeKeyword, "key"},
	{nodeDocdata, "location", nodeLocation, "region"},
	{nodeHead, "pubdata", nodePubdata, "name"},
	{nodeNITF, "body", nodeBody, ""},
	{nodeBody, "body.head", nodeBodyHead, ""},
	{nodeBodyHead, "hedline", nodeHedline, ""},
	{nodeHedline, "hl1", nodeHL1, ""},
	{nodeBodyHead, "byline", nodeByline, ""},
	{nodeBodyHead, "abstract", nodeAbstract, ""},
	{nodeBody, "body.content", nodeContent, ""},
}

// nitfMaxDepth bounds element nesting; the schema needs five levels.
const nitfMaxDepth = 32

// nitfDecoder scans src; every name, value and text run it hands out is a
// substring of src unless it had to be rewritten.
type nitfDecoder struct {
	src  string
	pos  int
	it   *Item
	done bool // the root element has closed
	// text accumulates the open text element's character data. One is
	// enough: anything nested in a text element is nodeOther.
	text  string
	depth int
	open  [nitfMaxDepth]struct {
		name string
		node nitfNode
	}
}

func (d *nitfDecoder) document() error {
	for !d.done {
		if d.pos+1 >= len(d.src) {
			return io.ErrUnexpectedEOF
		}
		var err error
		switch {
		case d.src[d.pos] != '<':
			err = d.charData()
		case d.src[d.pos+1] == '?':
			err = d.procInst()
		case d.src[d.pos+1] == '!':
			err = d.comment()
		case d.src[d.pos+1] == '/':
			err = d.endTag()
		default:
			err = d.startTag()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// charData consumes text up to the next tag. It is validated everywhere and
// kept inside a text element.
func (d *nitfDecoder) charData() error {
	end := strings.IndexByte(d.src[d.pos:], '<')
	if end < 0 {
		return io.ErrUnexpectedEOF
	}
	run, err := unescape(d.src[d.pos:d.pos+end], false)
	if err != nil {
		return err
	}
	d.pos += end
	if d.depth > 0 && d.open[d.depth-1].node.isText() {
		if d.text == "" {
			d.text = run
		} else {
			d.text += run // a comment or skipped element split the text
		}
	}
	return nil
}

func (d *nitfDecoder) startTag() error {
	d.pos++ // <
	name, err := d.name()
	if err != nil {
		return err
	}
	if d.depth == nitfMaxDepth {
		return fmt.Errorf("elements nested deeper than %d", nitfMaxDepth)
	}
	node, wanted := nodeOther, "" // wanted: the attribute the schema reads
	if d.depth == 0 {
		if name != "nitf" {
			return fmt.Errorf("root element is <%s>, want <nitf>", name)
		}
		node = nodeNITF
	} else {
		parent := d.open[d.depth-1].node
		for i := range nitfSchema {
			if s := &nitfSchema[i]; s.parent == parent && s.name == name {
				node, wanted = s.node, s.attr
				break
			}
		}
	}
	d.open[d.depth].name, d.open[d.depth].node = name, node
	d.depth++
	switch {
	case node == nodeKeyword:
		d.it.Subjects = append(d.it.Subjects, "")
	case node.isText():
		d.text = ""
	}
	for {
		d.skipSpace()
		if d.pos+1 >= len(d.src) { // no document ends within two bytes of here
			return io.ErrUnexpectedEOF
		}
		switch d.src[d.pos] {
		case '>':
			d.pos++
			return nil
		case '/':
			if d.src[d.pos+1] != '>' {
				return errors.New("expected /> in element")
			}
			d.pos += 2
			d.closeElement()
			return nil
		}
		attr, err := d.name()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.pos >= len(d.src) || d.src[d.pos] != '=' {
			return fmt.Errorf("attribute %s without =", attr)
		}
		d.pos++
		d.skipSpace()
		if d.pos >= len(d.src) || d.src[d.pos] != '"' && d.src[d.pos] != '\'' {
			return fmt.Errorf("attribute %s value is not quoted", attr)
		}
		quote := d.src[d.pos]
		d.pos++
		end := strings.IndexByte(d.src[d.pos:], quote)
		if end < 0 {
			return io.ErrUnexpectedEOF
		}
		val, err := unescape(d.src[d.pos:d.pos+end], true)
		if err != nil {
			return err
		}
		d.pos += end + 1
		if wanted == attr {
			if err := d.setAttr(node, val); err != nil {
				return err
			}
		}
	}
}

// setAttr stores the one attribute the schema reads from node.
func (d *nitfDecoder) setAttr(node nitfNode, val string) (err error) {
	it := d.it
	switch node {
	case nodeDocID:
		it.ID = val
	case nodeUrgency:
		it.Urgency, err = strconv.Atoi(val)
	case nodeDuKey:
		it.Revision, err = strconv.Atoi(val)
	case nodeDateIssue:
		it.Published = time.Time{}
		if len(val) > 0 {
			if it.Published, err = time.Parse(time.RFC3339Nano, val); err != nil {
				err = fmt.Errorf("bad date.issue %q: %w", val, err)
			}
		}
	case nodeKeyword:
		it.Subjects[len(it.Subjects)-1] = val
	case nodeLocation:
		it.Geography = val
	case nodePubdata:
		it.Publisher = val
	}
	return err
}

func (d *nitfDecoder) endTag() error {
	d.pos += 2 // </
	name, err := d.name()
	if err != nil {
		return err
	}
	d.skipSpace()
	if d.pos >= len(d.src) || d.src[d.pos] != '>' {
		return fmt.Errorf("invalid characters between </%s and >", name)
	}
	d.pos++
	if d.depth == 0 {
		return fmt.Errorf("unexpected end element </%s>", name)
	}
	if open := d.open[d.depth-1].name; open != name {
		return fmt.Errorf("element <%s> closed by </%s>", open, name)
	}
	d.closeElement()
	return nil
}

func (d *nitfDecoder) closeElement() {
	d.depth--
	switch d.open[d.depth].node {
	case nodeHL1:
		d.it.Headline = d.text
	case nodeByline:
		d.it.Byline = d.text
	case nodeAbstract:
		d.it.Abstract = d.text
	case nodeContent:
		d.it.Body = d.text
	}
	d.done = d.depth == 0
}

// procInst skips <?target …?>. An XML declaration is held to what this
// decoder can honour: version 1.0, UTF-8.
func (d *nitfDecoder) procInst() error {
	d.pos += 2 // <?
	target, err := d.name()
	if err != nil {
		return err
	}
	if d.pos < len(d.src) && d.src[d.pos] != '?' && !isXMLSpace(d.src[d.pos]) {
		return fmt.Errorf("invalid character after <?%s", target)
	}
	d.skipSpace()
	end := strings.Index(d.src[d.pos:], "?>")
	if end < 0 {
		return io.ErrUnexpectedEOF
	}
	content := d.src[d.pos : d.pos+end]
	d.pos += end + 2
	if target != "xml" {
		return nil
	}
	if v := declParam(content, "version="); len(v) > 0 && v != "1.0" {
		return fmt.Errorf("unsupported XML version %q", v)
	}
	if enc := declParam(content, "encoding="); len(enc) > 0 && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("unsupported encoding %q", enc)
	}
	return nil
}

// declParam returns the quoted value after param in an XML declaration,
// located as leniently as encoding/xml locates it, so that no declaration
// passes here that encoding/xml would refuse.
func declParam(s, param string) string {
	for {
		k := strings.Index(s, param)
		if k < 0 || k+len(param) >= len(s) {
			return ""
		}
		quote := s[k+len(param)]
		s = s[k+len(param)+1:]
		if quote == '"' || quote == '\'' {
			if end := strings.IndexByte(s, quote); end >= 0 {
				return s[:end]
			}
			return ""
		}
	}
}

// comment skips <!-- … -->, the only "<!" construct accepted.
func (d *nitfDecoder) comment() error {
	if !strings.HasPrefix(d.src[d.pos:], "<!--") {
		return errors.New("unsupported <! construct (only comments are accepted)")
	}
	d.pos += 4
	end := strings.Index(d.src[d.pos:], "--")
	if end < 0 || d.pos+end+2 >= len(d.src) {
		return io.ErrUnexpectedEOF
	}
	if d.src[d.pos+end+2] != '>' {
		return errors.New(`"--" inside comment`)
	}
	d.pos += end + 3
	return nil
}

// name consumes an element, attribute or target name. A ':' or a non-ASCII
// byte ends it, and then fails whatever the caller expects next.
func (d *nitfDecoder) name() (string, error) {
	start := d.pos
	for d.pos < len(d.src) && isNameByte(d.src[d.pos]) {
		d.pos++
	}
	name := d.src[start:d.pos]
	if len(name) == 0 || name[0] >= '0' && name[0] <= '9' || name[0] == '-' || name[0] == '.' {
		return "", errors.New("expected a name")
	}
	return name, nil
}

func isNameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '_' || c == '-' || c == '.'
}

func isXMLSpace(c byte) bool {
	return c == ' ' || c == '\n' || c == '\t' || c == '\r'
}

func (d *nitfDecoder) skipSpace() {
	for d.pos < len(d.src) && isXMLSpace(d.src[d.pos]) {
		d.pos++
	}
}

// unescape validates one run of character data, or one attribute value, and
// returns it decoded: run itself when nothing had to be rewritten (the
// common case), otherwise a string of its own.
func unescape(run string, quoted bool) (string, error) {
	var out []byte // the rewritten run; nil until the first rewrite
	last := 0      // start of the bytes of run not yet copied to out
	rewrite := func(i int) {
		if out == nil {
			out = make([]byte, 0, len(run)) // decoding never lengthens a run
		}
		out = append(out, run[last:i]...)
	}
	for i := 0; i < len(run); {
		c := run[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '&' && c != '<' && c != '>' {
			i++
			continue
		}
		switch {
		case c == '&':
			r, n, err := entity(run[i:])
			if err != nil {
				return "", err
			}
			rewrite(i)
			out = utf8.AppendRune(out, r)
			i += n
			last = i
		case c == '\r':
			rewrite(i)
			out = append(out, '\n')
			i++
			if i < len(run) && run[i] == '\n' {
				i++
			}
			last = i
		case c == '<':
			return "", errors.New("unescaped < inside quoted string")
		case c == '>' && !quoted && i >= 2 && run[i-1] == ']' && run[i-2] == ']':
			return "", errors.New("unescaped ]]> in text")
		case c < utf8.RuneSelf:
			if c < 0x20 && c != '\t' && c != '\n' {
				return "", fmt.Errorf("illegal character code %U", c)
			}
			i++
		default:
			r, size := utf8.DecodeRuneInString(run[i:])
			if r == utf8.RuneError && size == 1 {
				return "", errors.New("invalid UTF-8")
			}
			if !validXMLChar(r) {
				return "", fmt.Errorf("illegal character code %U", r)
			}
			i += size
		}
	}
	if out == nil {
		return run, nil
	}
	// out is this run's alone and is never written again.
	return viewString(append(out, run[last:]...)), nil
}

var nitfEntities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// entity decodes the reference at the start of s — one of the five
// predefined entities or a character reference — and returns its length.
func entity(s string) (rune, int, error) {
	semi := strings.IndexByte(s, ';')
	if semi < 0 || semi > 16 { // the longest, &#x10FFFF;, is 10 bytes
		return 0, 0, errors.New("entity without semicolon")
	}
	name := s[1:semi]
	if r, ok := nitfEntities[name]; ok {
		return r, semi + 1, nil
	}
	if len(name) > 1 && name[0] == '#' {
		digits, base := name[1:], 10
		if digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		if n, err := strconv.ParseUint(digits, base, 32); err == nil && validXMLChar(rune(n)) {
			return rune(n), semi + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("invalid character entity &%s;", name)
}
