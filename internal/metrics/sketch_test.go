package metrics

import (
	"math"
	"testing"
)

func TestSketchQuantileAccuracy(t *testing.T) {
	var s Sketch
	// Uniform 1ms..1s in 1ms steps.
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i) / 1000)
	}
	if got := s.Count(); got != 1000 {
		t.Fatalf("Count = %d, want 1000", got)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0.5}, {0.9, 0.9}, {0.99, 0.99}, {1.0, 1.0},
	} {
		got := s.Quantile(tc.q)
		// The sketch guarantees a relative error of sqrt(gamma)-1.
		relErr := math.Abs(got-tc.want) / tc.want
		if relErr > math.Sqrt(sketchGamma)-1+1e-9 {
			t.Errorf("Quantile(%v) = %v, want within %.0f%% of %v", tc.q, got, 100*(math.Sqrt(sketchGamma)-1), tc.want)
		}
	}
	wantSum := 0.0
	for i := 1; i <= 1000; i++ {
		wantSum += float64(i) / 1000
	}
	if got := s.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("Sum = %v, want %v", got, wantSum)
	}
}

func TestSketchEmptyAndEdgeValues(t *testing.T) {
	var s Sketch
	if got := s.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	s.Observe(0)
	s.Observe(-5)          // clamped to 0
	s.Observe(math.NaN())  // clamped to 0
	s.Observe(1e12)        // clamps into top bucket
	s.Observe(math.Inf(1)) // top bucket
	if got := s.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := s.Quantile(0); got != sketchMin {
		t.Errorf("Quantile(0) = %v, want %v", got, sketchMin)
	}
	if got := s.Quantile(1); got != sketchValue(SketchBuckets-1) {
		t.Errorf("Quantile(1) = %v, want top bucket %v", got, sketchValue(SketchBuckets-1))
	}
}

func TestSketchMerge(t *testing.T) {
	var a, b, both Sketch
	for i := 1; i <= 500; i++ {
		v := float64(i) / 1000
		a.Observe(v)
		both.Observe(v)
	}
	for i := 501; i <= 1000; i++ {
		v := float64(i) / 1000
		b.Observe(v)
		both.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != both.Count() {
		t.Fatalf("merged Count = %d, want %d", a.Count(), both.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := a.Quantile(q), both.Quantile(q); got != want {
			t.Errorf("merged Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got, want := a.Sum(), both.Sum(); math.Abs(got-want) > 1e-6 {
		t.Errorf("merged Sum = %v, want %v", got, want)
	}
	// Self-merge and nil-merge are no-ops.
	before := a.Count()
	a.Merge(&a)
	a.Merge(nil)
	if a.Count() != before {
		t.Errorf("self/nil merge changed Count: %d -> %d", before, a.Count())
	}
}

func TestSketchEncodeDecodeRoundTrip(t *testing.T) {
	var s Sketch
	for _, v := range []float64{0.001, 0.01, 0.01, 0.1, 2.5, 0} {
		s.Observe(v)
	}
	enc := s.Encode()
	dec, err := DecodeSketch(enc)
	if err != nil {
		t.Fatalf("DecodeSketch: %v", err)
	}
	if dec.Count() != s.Count() || dec.Sum() != s.Sum() {
		t.Fatalf("round-trip mismatch: count %d/%d sum %v/%v", dec.Count(), s.Count(), dec.Sum(), s.Sum())
	}
	for _, q := range []float64{0.5, 0.99} {
		if dec.Quantile(q) != s.Quantile(q) {
			t.Errorf("round-trip Quantile(%v) mismatch", q)
		}
	}
	// An empty sketch round-trips too and stays compact.
	var empty Sketch
	enc = empty.Encode()
	if len(enc) != 1+8+SketchBuckets {
		t.Errorf("empty encoding is %d bytes, want %d", len(enc), 1+8+SketchBuckets)
	}
	if _, err := DecodeSketch(enc); err != nil {
		t.Errorf("DecodeSketch(empty): %v", err)
	}
}

func TestSketchDecodeErrors(t *testing.T) {
	if _, err := DecodeSketch(nil); err == nil {
		t.Error("DecodeSketch(nil) succeeded")
	}
	if _, err := DecodeSketch([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("DecodeSketch with bad version succeeded")
	}
	var s Sketch
	s.Observe(0.5)
	enc := s.Encode()
	if _, err := DecodeSketch(enc[:len(enc)-1]); err == nil {
		t.Error("DecodeSketch(truncated) succeeded")
	}
	if _, err := DecodeSketch(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("DecodeSketch(trailing bytes) succeeded")
	}
	// A 10-byte bucket varint whose last byte carries past 64 bits.
	overflow := append([]byte{}, enc[:9]...)
	overflow = append(overflow, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)
	overflow = append(overflow, enc[10:]...)
	if _, err := DecodeSketch(overflow); err == nil {
		t.Error("DecodeSketch(overflowing varint) succeeded")
	}
}

// Counts saturate: one gossiped sketch with a bucket at MaxUint64 once
// wrapped a merge, Count and Quantile to zero.
func TestSketchMergeSaturates(t *testing.T) {
	var huge, one Sketch
	huge.counts[10] = math.MaxUint64
	one.Observe(0.01)
	enc, err := MergeEncoded(huge.Encode(), one.Encode())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := DecodeSketch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Count(); got != math.MaxUint64 {
		t.Errorf("Count() = %d, want MaxUint64", got)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := merged.Quantile(q); got == 0 {
			t.Errorf("Quantile(%v) = 0 on a saturated sketch", q)
		}
	}
}

func TestMergeEncoded(t *testing.T) {
	var a, b, both Sketch
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i) / 100)
		both.Observe(float64(i) / 100)
	}
	for i := 1; i <= 50; i++ {
		b.Observe(float64(i) / 10)
		both.Observe(float64(i) / 10)
	}
	merged, err := MergeEncoded(a.Encode(), b.Encode())
	if err != nil {
		t.Fatalf("MergeEncoded: %v", err)
	}
	dec, err := DecodeSketch(merged)
	if err != nil {
		t.Fatalf("DecodeSketch(merged): %v", err)
	}
	if dec.Count() != both.Count() {
		t.Errorf("merged Count = %d, want %d", dec.Count(), both.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if dec.Quantile(q) != both.Quantile(q) {
			t.Errorf("merged Quantile(%v) = %v, want %v", q, dec.Quantile(q), both.Quantile(q))
		}
	}

	// Empty operands pass through.
	enc := a.Encode()
	if out, err := MergeEncoded(enc, nil); err != nil || string(out) != string(enc) {
		t.Errorf("MergeEncoded(enc, nil) = %v, %v", out, err)
	}
	if out, err := MergeEncoded(nil, enc); err != nil || string(out) != string(enc) {
		t.Errorf("MergeEncoded(nil, enc) = %v, %v", out, err)
	}
	if _, err := MergeEncoded([]byte{1, 2}, enc); err == nil {
		t.Error("MergeEncoded with invalid operand succeeded")
	}
}

func TestMergeEncodedAssociative(t *testing.T) {
	var a, b, c Sketch
	a.Observe(0.01)
	b.Observe(0.1)
	b.Observe(0.2)
	c.Observe(1.5)
	ab, err := MergeEncoded(a.Encode(), b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	abc1, err := MergeEncoded(ab, c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	bc, err := MergeEncoded(b.Encode(), c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	abc2, err := MergeEncoded(a.Encode(), bc)
	if err != nil {
		t.Fatal(err)
	}
	if string(abc1) != string(abc2) {
		t.Error("MergeEncoded is not associative")
	}
}
