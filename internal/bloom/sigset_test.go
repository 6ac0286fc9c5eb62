package bloom

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestSignatureSetRoundTrip(t *testing.T) {
	filters := [][]byte{{0x01, 0x02}, {}, {0xff}}
	enc := EncodeSignatureSet(4, filters)
	k, got, ok := DecodeSignatureSet(enc)
	if !ok || k != 4 {
		t.Fatalf("decode: k=%d ok=%v", k, ok)
	}
	if !reflect.DeepEqual(got, filters) {
		t.Fatalf("filters = %v, want %v", got, filters)
	}
	if n := SignatureSetLen(enc); n != 3 {
		t.Fatalf("SignatureSetLen = %d, want 3", n)
	}
}

func TestSignatureSetMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},             // k = 0
		{0x01},             // missing count
		{0x01, 0x02, 0x05}, // filter length runs past the buffer
		{0x01, 0x01, 0x10, 0xaa},
		bytes.Repeat([]byte{0xff}, 12), // giant uvarints
		{0x01, 0x80, 0x80, 0x04},       // 65,536 entries claimed in no bytes
	}
	for _, enc := range cases {
		if _, _, ok := DecodeSignatureSet(enc); ok {
			t.Errorf("DecodeSignatureSet(%x) ok, want malformed", enc)
		}
		if n := SignatureSetLen(enc); n != 0 && enc != nil {
			// {0x01, 0x01, ...} has a plausible header; Len only reads it.
			_ = n
		}
		if IterSignatureSet(enc, func([]byte) bool { return true }) {
			// Iteration over malformed input must not report a hit unless a
			// complete filter was actually walked.
			k, _, ok := DecodeSignatureSet(enc)
			t.Errorf("IterSignatureSet(%x) hit on malformed input (k=%d ok=%v)", enc, k, ok)
		}
	}
}

// A count the encoding cannot hold is rejected before it sizes anything:
// a 4-byte gossiped value claiming 65,536 entries once made a 1.5 MB
// slice per decode.
func TestDecodeSignatureSetBoundsCountByLength(t *testing.T) {
	enc := []byte{0x01, 0x80, 0x80, 0x04}
	if _, _, ok := DecodeSignatureSet(enc); ok {
		t.Fatal("decoded a set whose count exceeds its bytes")
	}
	// Measured per call by testing.Benchmark, so only the decodes count:
	// a process-wide MemStats delta also charged whatever else the process
	// allocated meanwhile, and failed under a parallel -race load.
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DecodeSignatureSet(enc)
		}
	})
	if got := 100 * res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Fatalf("100 decodes allocated %d bytes, want < 4 KB", got)
	}
}

func TestIterSignatureSetShortCircuits(t *testing.T) {
	enc := EncodeSignatureSet(2, [][]byte{{0x01}, {0x02}, {0x04}})
	var seen [][]byte
	hit := IterSignatureSet(enc, func(f []byte) bool {
		seen = append(seen, f)
		return f[0] == 0x02
	})
	if !hit || len(seen) != 2 {
		t.Fatalf("hit=%v seen=%v, want hit after 2 filters", hit, seen)
	}
}

func TestMergeSignatureSetsClustersToK(t *testing.T) {
	// Two members with identical filters and one different: the identical
	// pair must merge first.
	a := EncodeSignatureSet(2, [][]byte{{0x0f, 0x00}, {0x00, 0xf0}})
	b := EncodeSignatureSet(2, [][]byte{{0x0f, 0x00}})
	merged := MergeSignatureSets(a, b)
	k, filters, ok := DecodeSignatureSet(merged)
	if !ok || k != 2 || len(filters) != 2 {
		t.Fatalf("merged: k=%d n=%d ok=%v", k, len(filters), ok)
	}
	if !reflect.DeepEqual(filters[0], []byte{0x0f, 0x00}) && !reflect.DeepEqual(filters[1], []byte{0x0f, 0x00}) {
		t.Fatalf("identical filters did not merge into one: %x", filters)
	}
}

func TestMergeSignatureSetsMalformedSideIgnored(t *testing.T) {
	good := EncodeSignatureSet(3, [][]byte{{0xaa}})
	for _, merged := range [][]byte{
		MergeSignatureSets(good, []byte{0x00}),
		MergeSignatureSets([]byte{0x00}, good),
	} {
		k, filters, ok := DecodeSignatureSet(merged)
		if !ok || k != 3 || len(filters) != 1 || !bytes.Equal(filters[0], []byte{0xaa}) {
			t.Fatalf("merge with malformed side = k=%d %x ok=%v, want the good side", k, filters, ok)
		}
	}
	if _, _, ok := DecodeSignatureSet(MergeSignatureSets(nil, nil)); !ok {
		t.Fatal("merging two malformed sets must still produce a decodable empty set")
	}
}

// TestMergeSignatureSetsUnionInvariant: however clustering groups the
// inputs, every input bit must survive into some output filter, and the
// union of outputs must equal the union of inputs (bits are only added,
// never lost — the soundness carrier).
func TestMergeSignatureSetsUnionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		mk := func(n int) [][]byte {
			fs := make([][]byte, n)
			for i := range fs {
				f := make([]byte, 16)
				for j := 0; j < 4; j++ {
					f[rng.Intn(len(f))] |= 1 << uint(rng.Intn(8))
				}
				fs[i] = f
			}
			return fs
		}
		fa, fb := mk(1+rng.Intn(5)), mk(1+rng.Intn(5))
		ka, kb := 1+rng.Intn(4), 1+rng.Intn(4)
		merged := MergeSignatureSets(EncodeSignatureSet(ka, fa), EncodeSignatureSet(kb, fb))
		k, out, ok := DecodeSignatureSet(merged)
		if !ok {
			t.Fatal("merged set does not decode")
		}
		maxK := ka
		if kb > maxK {
			maxK = kb
		}
		if k != maxK || len(out) > maxK {
			t.Fatalf("k=%d n=%d, want k=%d n<=%d", k, len(out), maxK, maxK)
		}
		wantUnion := make([]byte, 16)
		for _, f := range append(append([][]byte{}, fa...), fb...) {
			for i, c := range f {
				wantUnion[i] |= c
			}
		}
		gotUnion := make([]byte, 16)
		for _, f := range out {
			for i, c := range f {
				gotUnion[i] |= c
			}
		}
		if !bytes.Equal(gotUnion, wantUnion) {
			t.Fatalf("union changed across merge:\n got %x\nwant %x", gotUnion, wantUnion)
		}
	}
}

// TestMergeSignatureSetsDeterministic: same inputs, same bytes out.
func TestMergeSignatureSetsDeterministic(t *testing.T) {
	a := EncodeSignatureSet(2, [][]byte{{0x01}, {0x02}, {0x03}})
	b := EncodeSignatureSet(2, [][]byte{{0x04}, {0x05}})
	first := MergeSignatureSets(a, b)
	for i := 0; i < 5; i++ {
		if again := MergeSignatureSets(a, b); !bytes.Equal(first, again) {
			t.Fatalf("merge not deterministic: %x vs %x", first, again)
		}
	}
}

func TestClusterFiltersTieBreak(t *testing.T) {
	// All pairs have equal union popcount (6, above the saturation bound
	// of 3 for one-byte filters); the lowest-index pair merges.
	out := clusterFilters([][]byte{{0x1F}, {0x2F}, {0x4F}}, 2)
	if len(out) != 2 || !bytes.Equal(out[0], []byte{0x3F}) || !bytes.Equal(out[1], []byte{0x4F}) {
		t.Fatalf("tie-break merge = %x, want [3f 4f]", out)
	}
}

func TestClusterFiltersSaturationCollapse(t *testing.T) {
	// Below the K budget, near-disjoint-but-sparse filters still fold
	// together: three filters whose unions stay under 2/5 fill collapse
	// to one, so a zone of like-minded members costs a single filter.
	out := clusterFilters([][]byte{
		{0x01, 0x00, 0x00, 0x00, 0x00},
		{0x02, 0x00, 0x00, 0x00, 0x00},
		{0x00, 0x04, 0x00, 0x00, 0x00},
	}, 4)
	if len(out) != 1 || !bytes.Equal(out[0], []byte{0x03, 0x04, 0x00, 0x00, 0x00}) {
		t.Fatalf("saturation collapse = %x, want one union filter", out)
	}
	// Dense filters refuse the opportunistic merge and keep their K slots.
	dense := clusterFilters([][]byte{{0xFF, 0x0F, 0x00, 0x00, 0x00}, {0x00, 0x00, 0x00, 0xFF, 0x0F}}, 4)
	if len(dense) != 2 {
		t.Fatalf("dense filters merged below saturation: %x", dense)
	}
}

func BenchmarkMergeSignatureSets(b *testing.B) {
	mk := func(seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		fs := make([][]byte, 4)
		for i := range fs {
			f := make([]byte, 128)
			for j := 0; j < 64; j++ {
				f[rng.Intn(len(f))] |= 1 << uint(rng.Intn(8))
			}
			fs[i] = f
		}
		return EncodeSignatureSet(4, fs)
	}
	a, bb := mk(1), mk(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MergeSignatureSets(a, bb)
	}
}

func ExampleEncodeSignatureSet() {
	enc := EncodeSignatureSet(2, [][]byte{{0x01}, {0x02}})
	k, filters, _ := DecodeSignatureSet(enc)
	fmt.Println(k, len(filters))
	// Output: 2 2
}
