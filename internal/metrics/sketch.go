package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// SketchBuckets is the fixed bucket count of a Sketch. Together with
// sketchGamma it covers roughly one nanosecond to several hours of
// latency, which is every delivery latency this system can produce.
const SketchBuckets = 48

const (
	// sketchMin is the lower edge of bucket 1 (values at or below it land
	// in bucket 0). One microsecond: finer resolution is below anything a
	// network delivery path can measure meaningfully.
	sketchMin = 1e-6
	// sketchGamma is the bucket growth factor. gamma=1.6 over 47 log
	// buckets spans sketchMin * 1.6^47 ≈ 3.8e3 seconds; quantile
	// estimates come back as the bucket's geometric midpoint, bounding
	// the relative error at sqrt(gamma)-1 ≈ 26%.
	sketchGamma = 1.6
)

// Sketch is a compact mergeable quantile sketch over non-negative values
// (log-bucketed counting histogram). It exists so Astrolabe can aggregate
// delivery-latency distributions up the zone hierarchy: per-node sketches
// gossip as a few dozen bytes, merge by bucket-wise addition in any order
// (commutative, associative, idempotent-under-replay-free like any
// counter), and any node can then answer "cluster-wide p99" from its own
// replicated table. Count and Sum are exact; quantiles are bucket
// estimates.
//
// The zero value is an empty sketch, ready to use. All methods are safe
// for concurrent use.
type Sketch struct {
	mu     sync.Mutex
	counts [SketchBuckets]uint64
	sum    float64
}

// sketchBucket maps a value to its bucket index.
func sketchBucket(v float64) int {
	if v <= sketchMin || math.IsNaN(v) {
		return 0
	}
	// Clamp before the int conversion: +Inf (and anything past the top
	// bucket) would otherwise overflow int.
	f := math.Log(v/sketchMin) / math.Log(sketchGamma)
	if f >= SketchBuckets-2 {
		return SketchBuckets - 1
	}
	return 1 + int(f)
}

// sketchValue returns the representative value of a bucket: its geometric
// midpoint (bucket 0 reports sketchMin).
func sketchValue(b int) float64 {
	if b <= 0 {
		return sketchMin
	}
	lo := sketchMin * math.Pow(sketchGamma, float64(b-1))
	return lo * math.Sqrt(sketchGamma)
}

// Observe records one value.
func (s *Sketch) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	b := sketchBucket(v)
	s.mu.Lock()
	s.counts[b]++
	s.sum += v
	s.mu.Unlock()
}

// Count returns the number of observations, saturating at MaxUint64.
func (s *Sketch) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countLocked()
}

func (s *Sketch) countLocked() uint64 {
	var n uint64
	for _, c := range s.counts {
		n = addSat(n, c)
	}
	return n
}

// addSat adds two counts, saturating at MaxUint64: a gossiped sketch is
// outside input, and a wrapped sum would empty the cluster's summary.
func addSat(a, b uint64) uint64 {
	if a+b < a {
		return math.MaxUint64
	}
	return a + b
}

// Sum returns the exact sum of all observations (merges included).
func (s *Sketch) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Quantile returns the q-quantile estimate (0 ≤ q ≤ 1), or 0 for an
// empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.countLocked()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// float64(total) rounds up near MaxUint64, where the conversion back
	// would overflow.
	rank := total
	if r := math.Ceil(q * float64(total)); r < float64(total) {
		rank = uint64(r)
	}
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range s.counts {
		seen = addSat(seen, c)
		if seen >= rank {
			return sketchValue(b)
		}
	}
	return sketchValue(SketchBuckets - 1)
}

// Merge folds other into s (bucket-wise addition). other is unchanged.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other == s {
		return
	}
	other.mu.Lock()
	counts := other.counts
	sum := other.sum
	other.mu.Unlock()
	s.mu.Lock()
	for i, c := range counts {
		s.counts[i] = addSat(s.counts[i], c)
	}
	s.sum += sum
	s.mu.Unlock()
}

// sketchVersion tags the encoding so the format can evolve.
const sketchVersion = 1

// AppendBinary appends the sketch's compact encoding to dst: a version
// byte, the sum as 8 big-endian bytes, then one uvarint per bucket.
// Empty buckets encode as single zero bytes, which the wire codec's
// zero-run packing then collapses, so a sparse sketch costs a handful of
// bytes on the wire.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = append(dst, sketchVersion)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.sum))
	for _, c := range s.counts {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

// Encode returns the sketch's compact encoding.
func (s *Sketch) Encode() []byte { return s.AppendBinary(nil) }

// DecodeSketch parses an encoding produced by Encode/AppendBinary.
func DecodeSketch(data []byte) (*Sketch, error) {
	if len(data) < 9 {
		return nil, fmt.Errorf("metrics: sketch encoding too short (%d bytes)", len(data))
	}
	if data[0] != sketchVersion {
		return nil, fmt.Errorf("metrics: unknown sketch version %d", data[0])
	}
	s := &Sketch{sum: math.Float64frombits(binary.BigEndian.Uint64(data[1:9]))}
	pos := 9
	for i := 0; i < SketchBuckets; i++ {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("metrics: truncated or overflowing sketch bucket %d", i)
		}
		s.counts[i] = v
		pos += n
	}
	if pos != len(data) {
		return nil, fmt.Errorf("metrics: %d trailing bytes after sketch", len(data)-pos)
	}
	return s, nil
}

// MergeEncoded merges two encoded sketches without exposing intermediate
// state, for aggregation layers that hold sketches as opaque bytes. A nil
// or empty operand passes the other through unchanged; two invalid
// encodings yield an error.
func MergeEncoded(a, b []byte) ([]byte, error) {
	if len(a) == 0 {
		return b, nil
	}
	if len(b) == 0 {
		return a, nil
	}
	sa, err := DecodeSketch(a)
	if err != nil {
		return nil, err
	}
	sb, err := DecodeSketch(b)
	if err != nil {
		return nil, err
	}
	sa.Merge(sb)
	return sa.Encode(), nil
}
