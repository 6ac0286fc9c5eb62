package value

import (
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestInternReturnsCanonicalInstance(t *testing.T) {
	a := Intern(string([]byte("attr-name")))
	b := Intern(string([]byte("attr-name")))
	if a != b {
		t.Fatalf("Intern returned different contents: %q vs %q", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("Intern returned distinct backing arrays for equal strings")
	}
}

func TestInternBytes(t *testing.T) {
	canon := Intern("nmembers")
	buf := []byte("xxnmembersyy")
	got := InternBytes(buf[2:10])
	if got != canon || unsafe.StringData(got) != unsafe.StringData(canon) {
		t.Fatalf("InternBytes hit = %q, want the canonical instance of %q", got, canon)
	}
	if n := testing.AllocsPerRun(100, func() { _ = InternBytes(buf[2:10]) }); n != 0 {
		t.Fatalf("InternBytes hit allocates %v objects, want 0", n)
	}
	// A miss registers a copy, not a view of the caller's buffer.
	miss := []byte("intern-bytes-first-sighting")
	first := InternBytes(miss)
	miss[0] = 'X'
	if first != "intern-bytes-first-sighting" {
		t.Fatalf("interned name aliases the decode buffer: %q", first)
	}
	if again := Intern("intern-bytes-first-sighting"); unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("InternBytes miss did not register the name")
	}
	if got := InternBytes(nil); got != "" {
		t.Fatalf("InternBytes(nil) = %q", got)
	}
}

func TestInternCapStopsGrowth(t *testing.T) {
	// Saturate the table; strings past the cap must still round-trip by
	// value even though they are not retained.
	prefix := strings.Repeat("x", 8)
	for i := 0; i < maxInterned+64; i++ {
		Intern(prefix + strconv.Itoa(i))
	}
	internMu.RLock()
	n := len(interned)
	internMu.RUnlock()
	if n > maxInterned {
		t.Fatalf("intern table grew past cap: %d > %d", n, maxInterned)
	}
	if got := Intern("definitely-not-retained-past-cap"); got != "definitely-not-retained-past-cap" {
		t.Fatalf("Intern corrupted a value past the cap: %q", got)
	}
}
