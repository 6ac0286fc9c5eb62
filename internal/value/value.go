// Package value implements the dynamically typed attribute values that
// populate Astrolabe MIB rows and flow through the SQL aggregation engine.
//
// A Value is a small immutable sum type over the attribute kinds the paper's
// aggregation layer needs: booleans, integers, floats, strings, byte arrays
// (Bloom filters and category masks ride as bytes), timestamps, and string
// lists (multicast representative addresses). Values have a total order
// within a kind, a deterministic binary encoding for gossip, and copy
// semantics that never alias caller-owned slices — except DecodeBinaryView,
// ViewBytes and ViewStrings, which view a buffer nobody writes again.
package value

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported attribute kinds. KindInvalid is the zero Value's kind.
const (
	KindInvalid Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindTime
	KindStrings
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindTime:
		return "time"
	case KindStrings:
		return "strings"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed attribute value. The zero Value is the
// distinguished "invalid" (absent) value.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	by   []byte
	t    time.Time
	ss   []string
}

// Invalid returns the absent value.
func Invalid() Value { return Value{} }

// Bool returns a boolean Value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point Value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string Value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bytes returns a byte-array Value. The input slice is copied.
func Bytes(v []byte) Value {
	cp := make([]byte, len(v))
	copy(cp, v)
	return Value{kind: KindBytes, by: cp}
}

// Time returns a timestamp Value, truncated to nanosecond Unix time in UTC
// so that encoding round-trips exactly.
func Time(v time.Time) Value {
	return Value{kind: KindTime, t: time.Unix(0, v.UnixNano()).UTC()}
}

// Strings returns a string-list Value. The input slice is copied.
func Strings(v []string) Value {
	cp := make([]string, len(v))
	copy(cp, v)
	return Value{kind: KindStrings, ss: cp}
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether v holds a value (is not the absent value).
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsBool returns the boolean payload. ok is false if v is not a bool.
func (v Value) AsBool() (b bool, ok bool) { return v.b, v.kind == KindBool }

// AsInt returns the integer payload, coercing from float when the float is
// integral-representable. ok is false otherwise.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		if v.f == math.Trunc(v.f) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			return int64(v.f), true
		}
		return 0, false
	default:
		return 0, false
	}
}

// AsFloat returns the numeric payload as a float64, coercing from int.
// ok is false if v is not numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// AsString returns the string payload. ok is false if v is not a string.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsBytes returns a copy of the byte payload. ok is false if v is not bytes.
func (v Value) AsBytes() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	cp := make([]byte, len(v.by))
	copy(cp, v.by)
	return cp, true
}

// RawBytes returns the byte payload without copying. The caller must not
// mutate the result. ok is false if v is not bytes.
func (v Value) RawBytes() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	return v.by, true
}

// RawStrings returns the string-list payload without copying, for callers
// that only read it: nobody may mutate the result. A Value inside a gossiped
// row is shared by every replica of that row — in the simulator, by every
// agent in the process — so writing through this slice would corrupt them
// all. ok is false if v is not a string list.
func (v Value) RawStrings() ([]string, bool) {
	if v.kind != KindStrings {
		return nil, false
	}
	return v.ss, true
}

// AsTime returns the timestamp payload. ok is false if v is not a time.
func (v Value) AsTime() (time.Time, bool) { return v.t, v.kind == KindTime }

// AsStrings returns a copy of the string-list payload, which the caller
// owns and may reorder, edit or return to its own callers; readers that do
// none of that use RawStrings. ok is false if v is not a string list.
func (v Value) AsStrings() ([]string, bool) {
	if v.kind != KindStrings {
		return nil, false
	}
	cp := make([]string, len(v.ss))
	copy(cp, v.ss)
	return cp, true
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Truthy reports whether v counts as true in a WHERE clause: true booleans,
// non-zero numbers, non-empty strings/bytes/lists, and any valid time.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	case KindBytes:
		return len(v.by) > 0
	case KindTime:
		return !v.t.IsZero()
	case KindStrings:
		return len(v.ss) > 0
	default:
		return false
	}
}

// Equal reports deep equality of two values, including kind. Numeric values
// of different kinds compare equal when they represent the same number.
func (v Value) Equal(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInvalid:
		return true
	case KindBool:
		return v.b == o.b
	case KindString:
		return v.s == o.s
	case KindBytes:
		return bytes.Equal(v.by, o.by)
	case KindTime:
		return v.t.Equal(o.t)
	case KindStrings:
		if len(v.ss) != len(o.ss) {
			return false
		}
		for i := range v.ss {
			if v.ss[i] != o.ss[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders v against o. It returns -1, 0, or +1. Values of mixed
// numeric kinds compare numerically. Comparing other mixed kinds or
// unordered kinds returns an error.
func (v Value) Compare(o Value) (int, error) {
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind != o.kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindBool:
		switch {
		case v.b == o.b:
			return 0, nil
		case !v.b:
			return -1, nil
		default:
			return 1, nil
		}
	case KindString:
		return strings.Compare(v.s, o.s), nil
	case KindBytes:
		return bytes.Compare(v.by, o.by), nil
	case KindTime:
		switch {
		case v.t.Before(o.t):
			return -1, nil
		case v.t.After(o.t):
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("value: kind %s has no order", v.kind)
	}
}

// String renders v for logs and debugging.
func (v Value) String() string {
	switch v.kind {
	case KindInvalid:
		return "<invalid>"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.by))
	case KindTime:
		return v.t.Format(time.RFC3339Nano)
	case KindStrings:
		return "[" + strings.Join(v.ss, ",") + "]"
	default:
		return "<?>"
	}
}

// AppendBinary appends the canonical binary encoding of v to dst and
// returns the extended slice. The encoding is self-delimiting.
func (v Value) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInvalid:
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt:
		dst = binary.AppendVarint(dst, v.i)
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.by)))
		dst = append(dst, v.by...)
	case KindTime:
		dst = binary.AppendVarint(dst, v.t.UnixNano())
	case KindStrings:
		dst = binary.AppendUvarint(dst, uint64(len(v.ss)))
		for _, s := range v.ss {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// DecodeBinary decodes one Value from the front of src, returning the value
// and the number of bytes consumed. The value holds copies of what it read,
// so src may be reused at once.
func DecodeBinary(src []byte) (Value, int, error) { return decodeBinary(src, decodeCopy) }

// DecodeBinaryView is DecodeBinary for a buffer nobody writes again (a
// decoded gossip row's own copy, DESIGN.md §8 "Row ownership"): a string,
// a byte array and each element of a string list are views of src, the
// byte array clipped to its length, so only a string list allocates — its
// slice, sized from its count. The checks are DecodeBinary's.
func DecodeBinaryView(src []byte) (Value, int, error) { return decodeBinary(src, decodeView) }

// BinaryLen returns the length of the one value encoded at the front of
// src, checked as DecodeBinary checks it, without decoding it: a decoder
// walks a row with it to find the row's span before copying it.
func BinaryLen(src []byte) (int, error) {
	_, n, err := decodeBinary(src, decodeSkip)
	return n, err
}

// ViewBytes returns a byte-array Value over b itself, not a copy: the
// caller hands b over and never writes it again.
func ViewBytes(b []byte) Value { return Value{kind: KindBytes, by: b} }

// ViewStrings returns a string-list Value over ss itself, not a copy: the
// caller hands ss over, or keeps the Value only while nobody writes ss.
func ViewStrings(ss []string) Value { return Value{kind: KindStrings, ss: ss} }

type decodeMode uint8

const (
	decodeCopy decodeMode = iota // strings and bytes copied out of src
	decodeView                   // strings and bytes view src
	decodeSkip                   // checked and measured, allocating nothing
)

func (m decodeMode) str(b []byte) string {
	switch {
	case m == decodeCopy:
		return string(b)
	case len(b) == 0:
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func decodeBinary(src []byte, mode decodeMode) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("value: decode from empty input")
	}
	kind := Kind(src[0])
	pos := 1
	switch kind {
	case KindInvalid:
		return Value{}, pos, nil
	case KindBool:
		if len(src) < pos+1 {
			return Value{}, 0, fmt.Errorf("value: truncated bool")
		}
		return Bool(src[pos] != 0), pos + 1, nil
	case KindInt:
		i, n := binary.Varint(src[pos:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("value: truncated int")
		}
		return Int(i), pos + n, nil
	case KindFloat:
		if len(src) < pos+8 {
			return Value{}, 0, fmt.Errorf("value: truncated float")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(src[pos:]))
		return Float(f), pos + 8, nil
	case KindString:
		s, n, err := decodeLenPrefixed(src[pos:], "string")
		if err != nil {
			return Value{}, 0, err
		}
		return String(mode.str(s)), pos + n, nil
	case KindBytes:
		b, n, err := decodeLenPrefixed(src[pos:], "bytes")
		switch {
		case err != nil:
			return Value{}, 0, err
		case mode == decodeCopy:
			return Bytes(b), pos + n, nil
		}
		return ViewBytes(b[:len(b):len(b)]), pos + n, nil
	case KindTime:
		ns, n := binary.Varint(src[pos:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("value: truncated time")
		}
		return Time(time.Unix(0, ns).UTC()), pos + n, nil
	case KindStrings:
		count, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("value: truncated strings count")
		}
		pos += n
		if count > uint64(len(src)) {
			return Value{}, 0, fmt.Errorf("value: strings count %d exceeds input", count)
		}
		var ss []string
		if mode != decodeSkip {
			ss = make([]string, 0, count)
		}
		for i := uint64(0); i < count; i++ {
			s, n, err := decodeLenPrefixed(src[pos:], "strings element")
			if err != nil {
				return Value{}, 0, err
			}
			if mode != decodeSkip {
				ss = append(ss, mode.str(s))
			}
			pos += n
		}
		return Value{kind: KindStrings, ss: ss}, pos, nil
	default:
		return Value{}, 0, fmt.Errorf("value: unknown kind %d", kind)
	}
}

func decodeLenPrefixed(src []byte, what string) ([]byte, int, error) {
	l, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, 0, fmt.Errorf("value: truncated %s length", what)
	}
	if uint64(len(src)-n) < l {
		return nil, 0, fmt.Errorf("value: truncated %s payload (want %d bytes)", what, l)
	}
	return src[n : n+int(l)], n + int(l), nil
}

// Map is an attribute map: attribute name to value.
type Map map[string]Value

// Clone returns a deep-enough copy of m (Values are immutable so a shallow
// copy of the entries suffices).
func (m Map) Clone() Map {
	cp := make(Map, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// Keys returns the attribute names in sorted order.
func (m Map) Keys() []string {
	return m.appendSortedKeys(make([]string, 0, len(m)))
}

func (m Map) appendSortedKeys(dst []string) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// AppendBinary appends a deterministic (sorted-key) encoding of m to dst.
func (m Map) AppendBinary(dst []byte) []byte {
	var scratch [16]string // rows hold a handful of attributes: sort them on the stack
	keys := m.appendSortedKeys(scratch[:0])
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = m[k].AppendBinary(dst)
	}
	return dst
}

// DecodeMap decodes a Map from the front of src, returning the map and the
// number of bytes consumed.
func DecodeMap(src []byte) (Map, int, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, 0, fmt.Errorf("value: truncated map count")
	}
	pos := n
	if count > uint64(len(src)) {
		return nil, 0, fmt.Errorf("value: map count %d exceeds input", count)
	}
	m := make(Map, count)
	for i := uint64(0); i < count; i++ {
		k, kn, err := decodeLenPrefixed(src[pos:], "map key")
		if err != nil {
			return nil, 0, err
		}
		pos += kn
		v, vn, err := DecodeBinary(src[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("value: map entry %q: %w", k, err)
		}
		pos += vn
		m[string(k)] = v
	}
	return m, pos, nil
}

// Equal reports whether two maps hold the same entries.
func (m Map) Equal(o Map) bool {
	if len(m) != len(o) {
		return false
	}
	for k, v := range m {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}
