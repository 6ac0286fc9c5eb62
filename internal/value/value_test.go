package value

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindInvalid, "invalid"},
		{KindBool, "bool"},
		{KindInt, "int"},
		{KindFloat, "float"},
		{KindString, "string"},
		{KindBytes, "bytes"},
		{KindTime, "time"},
		{KindStrings, "strings"},
		{Kind(200), "kind(200)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Errorf("Bool(true) round trip failed: %v %v", v, ok)
	}
	if v, ok := Int(-7).AsInt(); !ok || v != -7 {
		t.Errorf("Int(-7) round trip failed: %v %v", v, ok)
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Errorf("Float(2.5) round trip failed: %v %v", v, ok)
	}
	if v, ok := String("hi").AsString(); !ok || v != "hi" {
		t.Errorf("String round trip failed: %v %v", v, ok)
	}
	if v, ok := Bytes([]byte{1, 2}).AsBytes(); !ok || len(v) != 2 {
		t.Errorf("Bytes round trip failed: %v %v", v, ok)
	}
	now := time.Now()
	if v, ok := Time(now).AsTime(); !ok || v.UnixNano() != now.UnixNano() {
		t.Errorf("Time round trip failed: %v %v", v, ok)
	}
	if v, ok := Strings([]string{"a", "b"}).AsStrings(); !ok || len(v) != 2 {
		t.Errorf("Strings round trip failed: %v %v", v, ok)
	}
}

func TestZeroValueIsInvalid(t *testing.T) {
	var v Value
	if v.IsValid() {
		t.Fatal("zero Value should be invalid")
	}
	if v.Kind() != KindInvalid {
		t.Fatalf("zero Value kind = %v", v.Kind())
	}
	if v.Truthy() {
		t.Fatal("zero Value should not be truthy")
	}
}

func TestNumericCoercion(t *testing.T) {
	if v, ok := Float(42).AsInt(); !ok || v != 42 {
		t.Errorf("Float(42).AsInt() = %v, %v", v, ok)
	}
	if _, ok := Float(42.5).AsInt(); ok {
		t.Error("Float(42.5).AsInt() should fail")
	}
	if v, ok := Int(3).AsFloat(); !ok || v != 3.0 {
		t.Errorf("Int(3).AsFloat() = %v, %v", v, ok)
	}
	if _, ok := String("3").AsInt(); ok {
		t.Error("String should not coerce to int")
	}
}

func TestBytesAreCopied(t *testing.T) {
	src := []byte{1, 2, 3}
	v := Bytes(src)
	src[0] = 99
	got, _ := v.AsBytes()
	if got[0] != 1 {
		t.Fatal("Bytes did not copy its input")
	}
	got[1] = 99
	got2, _ := v.AsBytes()
	if got2[1] != 2 {
		t.Fatal("AsBytes did not copy its output")
	}
}

func TestStringsAreCopied(t *testing.T) {
	src := []string{"a", "b"}
	v := Strings(src)
	src[0] = "mutated"
	got, _ := v.AsStrings()
	if got[0] != "a" {
		t.Fatal("Strings did not copy its input")
	}
}

func TestTruthy(t *testing.T) {
	tests := []struct {
		v    Value
		want bool
	}{
		{Bool(true), true},
		{Bool(false), false},
		{Int(0), false},
		{Int(1), true},
		{Float(0), false},
		{Float(0.1), true},
		{String(""), false},
		{String("x"), true},
		{Bytes(nil), false},
		{Bytes([]byte{0}), true},
		{Strings(nil), false},
		{Strings([]string{"a"}), true},
		{Time(time.Unix(1, 0)), true},
	}
	for _, tt := range tests {
		if got := tt.v.Truthy(); got != tt.want {
			t.Errorf("%v.Truthy() = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !Int(5).Equal(Float(5)) {
		t.Error("Int(5) should equal Float(5)")
	}
	if Int(5).Equal(Float(5.5)) {
		t.Error("Int(5) should not equal Float(5.5)")
	}
	if !Bytes([]byte{1, 2}).Equal(Bytes([]byte{1, 2})) {
		t.Error("equal bytes should be Equal")
	}
	if Bytes([]byte{1}).Equal(Bytes([]byte{2})) {
		t.Error("different bytes should not be Equal")
	}
	if !Strings([]string{"a"}).Equal(Strings([]string{"a"})) {
		t.Error("equal string lists should be Equal")
	}
	if Strings([]string{"a"}).Equal(Strings([]string{"a", "b"})) {
		t.Error("different length lists should not be Equal")
	}
	if String("1").Equal(Int(1)) {
		t.Error("string should not equal int")
	}
	if !Invalid().Equal(Invalid()) {
		t.Error("invalid should equal invalid")
	}
}

func TestCompare(t *testing.T) {
	cmp := func(a, b Value) int {
		t.Helper()
		c, err := a.Compare(b)
		if err != nil {
			t.Fatalf("Compare(%v, %v): %v", a, b, err)
		}
		return c
	}
	if cmp(Int(1), Int(2)) != -1 || cmp(Int(2), Int(1)) != 1 || cmp(Int(2), Int(2)) != 0 {
		t.Error("int comparison wrong")
	}
	if cmp(Int(1), Float(1.5)) != -1 {
		t.Error("mixed numeric comparison wrong")
	}
	if cmp(String("a"), String("b")) != -1 {
		t.Error("string comparison wrong")
	}
	if cmp(Bool(false), Bool(true)) != -1 {
		t.Error("bool comparison wrong")
	}
	early, late := Time(time.Unix(1, 0)), Time(time.Unix(2, 0))
	if cmp(early, late) != -1 || cmp(late, early) != 1 || cmp(early, early) != 0 {
		t.Error("time comparison wrong")
	}
	if cmp(Bytes([]byte{1}), Bytes([]byte{2})) != -1 {
		t.Error("bytes comparison wrong")
	}
	if _, err := String("a").Compare(Int(1)); err == nil {
		t.Error("mixed-kind comparison should error")
	}
	if _, err := Strings(nil).Compare(Strings(nil)); err == nil {
		t.Error("strings comparison should error (no order)")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	vals := []Value{
		Invalid(),
		Bool(true),
		Bool(false),
		Int(0),
		Int(math.MaxInt64),
		Int(math.MinInt64),
		Float(3.14159),
		Float(math.Inf(1)),
		String(""),
		String("hello world"),
		Bytes(nil),
		Bytes([]byte{0, 1, 2, 255}),
		Time(time.Unix(1017619200, 12345)),
		Strings(nil),
		Strings([]string{"", "a", "long string with spaces"}),
	}
	for _, v := range vals {
		enc := v.AppendBinary(nil)
		got, n, err := DecodeBinary(enc)
		if err != nil {
			t.Errorf("decode %v: %v", v, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("decode %v consumed %d of %d bytes", v, n, len(enc))
		}
		if !got.Equal(v) || got.Kind() != v.Kind() {
			t.Errorf("round trip %v -> %v", v, got)
		}
		view, vn, err := DecodeBinaryView(enc)
		if err != nil || vn != n || !view.Equal(v) || view.Kind() != v.Kind() {
			t.Errorf("view of %v = %v, %d bytes, %v", v, view, vn, err)
		}
		if ln, err := BinaryLen(enc); err != nil || ln != n {
			t.Errorf("BinaryLen of %v = %d, %v; want %d", v, ln, err, n)
		}
	}
}

// TestBinaryViewAliasesItsInput: a viewed string, byte array or list
// element lies in the encoding it was decoded from, the byte array clipped
// to its length, and only a string list allocates.
func TestBinaryViewAliasesItsInput(t *testing.T) {
	enc := String("hello").AppendBinary(nil)
	enc = Bytes([]byte{1, 2, 3}).AppendBinary(enc)
	enc = Strings([]string{"a", "bc"}).AppendBinary(enc)
	in := func(p unsafe.Pointer) bool {
		return uintptr(p) >= uintptr(unsafe.Pointer(&enc[0])) && uintptr(p) < uintptr(unsafe.Pointer(&enc[0]))+uintptr(len(enc))
	}
	s, n1, _ := DecodeBinaryView(enc)
	b, n2, _ := DecodeBinaryView(enc[n1:])
	l, _, _ := DecodeBinaryView(enc[n1+n2:])
	str, _ := s.AsString()
	raw, _ := b.RawBytes()
	list, _ := l.RawStrings()
	if !in(unsafe.Pointer(unsafe.StringData(str))) || !in(unsafe.Pointer(&raw[0])) || !in(unsafe.Pointer(unsafe.StringData(list[1]))) {
		t.Error("a view does not lie in its input")
	}
	if cap(raw) != len(raw) {
		t.Errorf("viewed bytes have capacity %d past their %d", cap(raw), len(raw))
	}
	for i, want := range []float64{0, 0, 1} {
		off := [...]int{0, n1, n1 + n2}[i]
		if got := testing.AllocsPerRun(100, func() { _, _, _ = DecodeBinaryView(enc[off:]) }); got != want {
			t.Errorf("viewing value %d allocates %v objects, want %v", i, got, want)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = BinaryLen(enc[off:]) }); got != 0 {
			t.Errorf("measuring value %d allocates %v objects", i, got)
		}
	}
}

func TestBinaryDecodeConcatenated(t *testing.T) {
	var enc []byte
	enc = Int(7).AppendBinary(enc)
	enc = String("x").AppendBinary(enc)
	v1, n1, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v1.AsInt(); i != 7 {
		t.Fatalf("first value = %v", v1)
	}
	v2, _, err := DecodeBinary(enc[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v2.AsString(); s != "x" {
		t.Fatalf("second value = %v", v2)
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(KindBool)},
		{byte(KindFloat), 1, 2},
		{byte(KindString), 5, 'a'},
		{byte(KindBytes), 200},
		{byte(KindStrings), 3, 10, 'x'},
		{250},
	}
	for _, b := range bad {
		if _, _, err := DecodeBinary(b); err == nil {
			t.Errorf("DecodeBinary(%v) should fail", b)
		}
		if _, _, err := DecodeBinaryView(b); err == nil {
			t.Errorf("DecodeBinaryView(%v) should fail", b)
		}
		if _, err := BinaryLen(b); err == nil {
			t.Errorf("BinaryLen(%v) should fail", b)
		}
	}
}

func TestMapRoundTrip(t *testing.T) {
	m := Map{
		"load":  Float(0.25),
		"name":  String("node-1"),
		"subs":  Bytes([]byte{0xff, 0x00}),
		"alive": Bool(true),
		"reps":  Strings([]string{"a:1", "b:2"}),
	}
	enc := m.AppendBinary(nil)
	got, n, err := DecodeMap(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if !got.Equal(m) {
		t.Fatalf("round trip mismatch: %v vs %v", got, m)
	}
}

func TestMapEncodingDeterministic(t *testing.T) {
	m := Map{"b": Int(2), "a": Int(1), "c": Int(3)}
	e1 := m.AppendBinary(nil)
	e2 := m.Clone().AppendBinary(nil)
	if string(e1) != string(e2) {
		t.Fatal("map encoding not deterministic")
	}
}

func TestMapClone(t *testing.T) {
	m := Map{"a": Int(1)}
	cp := m.Clone()
	cp["a"] = Int(2)
	if v, _ := m["a"].AsInt(); v != 1 {
		t.Fatal("Clone aliases the original map")
	}
}

func TestMapEqual(t *testing.T) {
	a := Map{"x": Int(1)}
	b := Map{"x": Float(1)}
	if !a.Equal(b) {
		t.Error("numerically equal maps should be Equal")
	}
	c := Map{"x": Int(1), "y": Int(2)}
	if a.Equal(c) {
		t.Error("different-size maps should not be Equal")
	}
	d := Map{"z": Int(1)}
	if a.Equal(d) {
		t.Error("different-key maps should not be Equal")
	}
}

func TestMapDecodeErrors(t *testing.T) {
	m := Map{"key": Int(1)}
	enc := m.AppendBinary(nil)
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeMap(enc[:cut]); err == nil {
			t.Errorf("truncated map at %d should fail to decode", cut)
		}
	}
}

// Property: every int value round-trips through the binary codec.
func TestQuickIntRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		v := Int(i)
		got, n, err := DecodeBinary(v.AppendBinary(nil))
		if err != nil || n == 0 {
			return false
		}
		gi, ok := got.AsInt()
		return ok && gi == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every string value round-trips through the binary codec.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		got, _, err := DecodeBinary(String(s).AppendBinary(nil))
		if err != nil {
			return false
		}
		gs, ok := got.AsString()
		return ok && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every byte payload round-trips through the binary codec.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		got, _, err := DecodeBinary(Bytes(b).AppendBinary(nil))
		if err != nil {
			return false
		}
		gb, ok := got.AsBytes()
		if !ok || len(gb) != len(b) {
			return false
		}
		for i := range b {
			if gb[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric for ints.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Int(a).Compare(Int(b))
		y, err2 := Int(b).Compare(Int(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary maps of string->int round-trip.
func TestQuickMapRoundTrip(t *testing.T) {
	f := func(keys []string, vals []int64) bool {
		m := make(Map)
		for i, k := range keys {
			if i < len(vals) {
				m[k] = Int(vals[i])
			}
		}
		got, _, err := DecodeMap(m.AppendBinary(nil))
		return err == nil && got.Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRawBytes(t *testing.T) {
	v := Bytes([]byte{1, 2, 3})
	raw, ok := v.RawBytes()
	if !ok || len(raw) != 3 {
		t.Fatalf("RawBytes = %v, %v", raw, ok)
	}
	if _, ok := Int(1).RawBytes(); ok {
		t.Fatal("RawBytes on int should fail")
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Invalid(), "<invalid>"},
		{Bool(true), "true"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{String("x"), `"x"`},
		{Bytes([]byte{1, 2}), "bytes[2]"},
		{Strings([]string{"a", "b"}), "[a,b]"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", tt.v.Kind(), got, tt.want)
		}
	}
	ts := Time(time.Date(2002, 4, 1, 0, 0, 0, 0, time.UTC))
	if ts.String() == "" {
		t.Error("time String empty")
	}
}
