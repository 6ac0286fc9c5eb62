package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	f := New(1024, 3)
	if f.Bits() != 1024 {
		t.Errorf("Bits() = %d, want 1024", f.Bits())
	}
	if f.Hashes() != 3 {
		t.Errorf("Hashes() = %d, want 3", f.Hashes())
	}
	if len(f.Bytes()) != 128 {
		t.Errorf("Bytes() length = %d, want 128", len(f.Bytes()))
	}
	// Non-byte-aligned sizes round up.
	g := New(10, 1)
	if len(g.Bytes()) != 2 {
		t.Errorf("10-bit filter has %d bytes, want 2", len(g.Bytes()))
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	for _, args := range [][2]int{{0, 1}, {-5, 1}, {8, 0}, {8, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", args[0], args[1])
				}
			}()
			New(args[0], args[1])
		}()
	}
}

func TestAddTest(t *testing.T) {
	f := New(DefaultBits, DefaultHashes)
	keys := []string{"slashdot/linux", "reuters/asia", "nytimes/politics"}
	for _, k := range keys {
		f.Add(k)
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Errorf("Test(%q) = false after Add (false negatives are forbidden)", k)
		}
	}
}

func TestNoFalseNegativesEver(t *testing.T) {
	f := New(512, 4)
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%d", i)
		f.Add(k)
		if !f.Test(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestPositionsStableAndInRange(t *testing.T) {
	p1 := PositionsFor("subject", 1000, 5)
	p2 := PositionsFor("subject", 1000, 5)
	if len(p1) != 5 {
		t.Fatalf("got %d positions, want 5", len(p1))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("Positions is not deterministic")
		}
		if p1[i] >= 1000 {
			t.Fatalf("position %d out of range", p1[i])
		}
	}
	// Same key appended after other positions: identical.
	p3 := AppendPositions([]uint32{7}, 1000, 5, "", "subject")[1:]
	for i := range p1 {
		if p1[i] != p3[i] {
			t.Fatal("positions differ between PositionsFor and AppendPositions")
		}
	}
}

func TestPositionsForMatchesFilter(t *testing.T) {
	f := New(DefaultBits, 2)
	f.Add("topic/x")
	want := PositionsFor("topic/x", DefaultBits, 2)
	if !f.TestPositions(want) || f.PopCount() > len(want) {
		t.Fatalf("Add set %d bits, PositionsFor says %v", f.PopCount(), want)
	}
}

// TestAppendPositionsParts: hashing a key in two parts is hashing their
// concatenation (PositionsFor of the whole key), wherever the split falls,
// and appends after what dst already holds.
func TestAppendPositionsParts(t *testing.T) {
	prop := func(prefix, key string, lead uint32) bool {
		want := PositionsFor(prefix+key, DefaultBits, 3)
		got := AppendPositions([]uint32{lead}, DefaultBits, 3, prefix, key)
		if len(got) != 1+len(want) || got[0] != lead {
			return false
		}
		for i := range want {
			if got[1+i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPositionsKnownAnswers pins the hash: positions of a subject,
// publisher and urgency signature key (internal/query's "s:", "p:" and
// "u:" keys) and of a bare subject, as the FNV-1a + mix64 derivation has
// always computed them. A change here re-routes every deployed filter.
func TestPositionsKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		prefix, key string
		want1       uint32
		want3       [3]uint32
	}{
		{"s:", "tech/linux", 647, [3]uint32{647, 912, 153}},
		{"p:", "reuters", 137, [3]uint32{137, 474, 811}},
		{"u:", "5", 791, [3]uint32{791, 764, 737}},
		{"", "tech/linux", 871, [3]uint32{871, 240, 633}},
	} {
		if got := AppendPositions(nil, 1024, 1, c.prefix, c.key); len(got) != 1 || got[0] != c.want1 {
			t.Errorf("%q+%q k=1: positions %v, want [%d]", c.prefix, c.key, got, c.want1)
		}
		if got := PositionsFor(c.prefix+c.key, 1024, 3); [3]uint32(got) != c.want3 {
			t.Errorf("%q k=3: positions %v, want %v", c.prefix+c.key, got, c.want3)
		}
	}
}

// TestAppendPositionsAllocationBudget: with room in dst the routine
// allocates nothing, and neither do Add and Test.
func TestAppendPositionsAllocationBudget(t *testing.T) {
	f := New(DefaultBits, 4)
	dst := make([]uint32, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		dst = AppendPositions(dst[:0], DefaultBits, 4, "s:", "tech/linux")
		f.Add("tech/linux")
		f.Test("tech/linux")
	}); n != 0 {
		t.Errorf("AppendPositions, Add and Test allocate %v objects, budget 0", n)
	}
}

func TestTestPositions(t *testing.T) {
	f := New(256, 2)
	f.Add("present")
	if !f.TestPositions(PositionsFor("present", f.Bits(), f.Hashes())) {
		t.Error("TestPositions false for present key")
	}
	if f.TestPositions([]uint32{9999}) {
		t.Error("out-of-range position should test false")
	}
	empty := New(256, 2)
	if empty.TestPositions(PositionsFor("anything", empty.Bits(), empty.Hashes())) {
		t.Error("empty filter should test false")
	}
}

func TestSetPosition(t *testing.T) {
	f := New(64, 1)
	f.SetPosition(10)
	if !f.TestPositions([]uint32{10}) {
		t.Error("SetPosition(10) not observable")
	}
	f.SetPosition(9999) // silently ignored
	if f.PopCount() != 1 {
		t.Errorf("PopCount = %d, want 1", f.PopCount())
	}
}

func TestMergeIsUnion(t *testing.T) {
	a := New(512, 2)
	b := New(512, 2)
	a.Add("only-a")
	b.Add("only-b")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !a.Test("only-a") || !a.Test("only-b") {
		t.Error("merged filter must contain both sides' keys")
	}
	if b.Test("only-a") {
		t.Error("Merge must not modify its argument")
	}
}

func TestMergeSizeMismatch(t *testing.T) {
	a := New(512, 2)
	b := New(256, 2)
	if err := a.Merge(b); err == nil {
		t.Error("merging different sizes should fail")
	}
	if err := a.MergeBytes(make([]byte, 10)); err == nil {
		t.Error("MergeBytes with wrong snapshot size should fail")
	}
}

func TestMergeBytesRoundTrip(t *testing.T) {
	a := New(512, 1)
	a.Add("x")
	snapshot := a.Bytes()

	b := New(512, 1)
	if err := b.MergeBytes(snapshot); err != nil {
		t.Fatal(err)
	}
	if !b.Test("x") {
		t.Error("MergeBytes lost key")
	}
}

func TestFromBytes(t *testing.T) {
	a := New(512, 3)
	a.Add("k")
	b, err := FromBytes(a.Bytes(), 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Test("k") {
		t.Error("FromBytes lost key")
	}
	if _, err := FromBytes(make([]byte, 3), 512, 3); err == nil {
		t.Error("FromBytes with wrong length should fail")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(128, 1)
	a.Add("x")
	b := a.Clone()
	b.Add("y")
	if a.Test("y") {
		t.Error("Clone aliases the original")
	}
	if !b.Test("x") {
		t.Error("Clone lost existing keys")
	}
}

func TestClearAndCounts(t *testing.T) {
	f := New(128, 1)
	if f.PopCount() != 0 || f.Density() != 0 {
		t.Error("fresh filter not empty")
	}
	f.Add("a")
	if f.PopCount() == 0 {
		t.Error("PopCount zero after Add")
	}
	f.Clear()
	if f.PopCount() != 0 {
		t.Error("Clear did not reset")
	}
}

func TestDensityAndFPRate(t *testing.T) {
	f := New(8, 1)
	for i := uint32(0); i < 4; i++ {
		f.SetPosition(i)
	}
	if d := f.Density(); d != 0.5 {
		t.Errorf("Density = %v, want 0.5", d)
	}
	if r := f.FalsePositiveRate(); r != 0.5 {
		t.Errorf("FalsePositiveRate = %v, want 0.5 with k=1", r)
	}
}

func TestExpectedFalsePositiveRate(t *testing.T) {
	if r := ExpectedFalsePositiveRate(1024, 1, 0); r != 0 {
		t.Errorf("empty filter expected rate = %v, want 0", r)
	}
	// Rate grows with insertions.
	r1 := ExpectedFalsePositiveRate(1024, 1, 100)
	r2 := ExpectedFalsePositiveRate(1024, 1, 1000)
	if !(r1 < r2) {
		t.Errorf("rate should grow with n: %v vs %v", r1, r2)
	}
	// And shrinks with more bits.
	r3 := ExpectedFalsePositiveRate(16384, 1, 1000)
	if !(r3 < r2) {
		t.Errorf("rate should shrink with m: %v vs %v", r3, r2)
	}
	if ExpectedFalsePositiveRate(0, 1, 10) != 0 {
		t.Error("degenerate geometry should return 0")
	}
}

func TestMeasuredFPRateNearTheory(t *testing.T) {
	const (
		m = 4096
		k = 1
		n = 500
	)
	f := New(m, k)
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("member-%d", i))
	}
	rng := rand.New(rand.NewSource(42))
	falsePos := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if f.Test(fmt.Sprintf("absent-%d-%d", i, rng.Int())) {
			falsePos++
		}
	}
	measured := float64(falsePos) / trials
	expected := ExpectedFalsePositiveRate(m, k, n)
	if measured > expected*2+0.01 {
		t.Errorf("measured FP rate %v far above theoretical %v", measured, expected)
	}
}

func TestEncodeDecodePositions(t *testing.T) {
	in := []uint32{0, 1, 1023, 4095}
	out, err := DecodePositions(EncodePositions(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("position %d: %d != %d", i, out[i], in[i])
		}
	}
	if _, err := DecodePositions(nil); err == nil {
		t.Error("decoding empty input should fail")
	}
	if _, err := DecodePositions([]byte{5, 1}); err == nil {
		t.Error("truncated positions should fail")
	}
}

// Property: OR-merge is commutative — aggregating child filters in any order
// yields the same parent filter (required for Astrolabe's unordered gossip).
func TestQuickMergeCommutative(t *testing.T) {
	f := func(keysA, keysB []string) bool {
		a1, b1 := New(256, 2), New(256, 2)
		for _, k := range keysA {
			a1.Add(k)
		}
		for _, k := range keysB {
			b1.Add(k)
		}
		ab := a1.Clone()
		if ab.Merge(b1) != nil {
			return false
		}
		ba := b1.Clone()
		if ba.Merge(a1) != nil {
			return false
		}
		abBytes, baBytes := ab.Bytes(), ba.Bytes()
		for i := range abBytes {
			if abBytes[i] != baBytes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merge never loses membership (no false negatives post-merge).
func TestQuickMergePreservesMembership(t *testing.T) {
	f := func(keysA, keysB []string) bool {
		a, b := New(512, 3), New(512, 3)
		for _, k := range keysA {
			a.Add(k)
		}
		for _, k := range keysB {
			b.Add(k)
		}
		if a.Merge(b) != nil {
			return false
		}
		for _, k := range keysA {
			if !a.Test(k) {
				return false
			}
		}
		for _, k := range keysB {
			if !a.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: positions round-trip through the wire encoding.
func TestQuickPositionsRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		in := make([]uint32, len(raw))
		copy(in, raw)
		out, err := DecodePositions(EncodePositions(in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
