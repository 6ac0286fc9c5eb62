package transport

import "sync"

// Size-classed receive buffers for readLoop. A busy hub decodes tens of
// thousands of frames per second; allocating each frame's buffer fresh
// makes the read path a pure allocation treadmill (the decoder copies
// everything it keeps, so the buffer is dead the moment Decode returns).
// Buffers are pooled in power-of-two classes from minBufClass to
// maxBufClass; larger frames (rare state transfers) fall back to plain
// allocation. A buffer travels as the *[]byte the pool holds, from GetBuf
// back to PutBuf, so a round trip through the pool allocates nothing.

const (
	minBufClass = 10 // 1 KiB
	maxBufClass = 20 // 1 MiB, matching wire's maxPooledBuf
)

var bufPools [maxBufClass - minBufClass + 1]sync.Pool

// GetBuf returns a buffer with len(*buf) == n, drawn from the smallest
// pooled size class that fits (or freshly allocated above the largest
// class). Release it with PutBuf when the frame has been decoded.
func GetBuf(n int) *[]byte {
	c, ok := bufClass(n)
	if !ok {
		b := make([]byte, n)
		return &b
	}
	p, _ := bufPools[c].Get().(*[]byte)
	if p == nil {
		b := make([]byte, 1<<(c+minBufClass))
		p = &b
	}
	*p = (*p)[:n]
	return p
}

// PutBuf returns a buffer obtained from GetBuf to its pool. Buffers whose
// capacity is not a pooled class size (over-large frames) are dropped for
// the GC.
func PutBuf(p *[]byte) {
	if c, ok := bufClass(cap(*p)); ok && cap(*p) == 1<<(c+minBufClass) {
		*p = (*p)[:cap(*p)]
		bufPools[c].Put(p)
	}
}

// bufClass maps a byte count to its pool index: the smallest class c with
// 1<<(c+minBufClass) >= n.
func bufClass(n int) (int, bool) {
	if n > 1<<maxBufClass {
		return 0, false
	}
	for c := 0; c < len(bufPools); c++ {
		if n <= 1<<(c+minBufClass) {
			return c, true
		}
	}
	return 0, false
}
