package wire

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"newswire/internal/value"
)

// TestArenaCopyIsPrivateAndImmutable checks the COW contract: the copy
// is detached from the caller's buffer, and later arena activity never
// rewrites an earlier region.
func TestArenaCopyIsPrivateAndImmutable(t *testing.T) {
	var a Arena
	src := []byte("attribute payload")
	c1 := a.Copy(src)
	src[0] = 'X' // caller mutates its buffer afterwards
	if string(c1) != "attribute payload" {
		t.Fatalf("arena copy aliases the source: %q", c1)
	}
	// Fill well past one slab; c1 must be untouched.
	chunk := bytes.Repeat([]byte{0xAB}, 4096)
	for i := 0; i < 2*arenaSlabSize/len(chunk); i++ {
		a.Copy(chunk)
	}
	if string(c1) != "attribute payload" {
		t.Fatalf("arena copy was overwritten by later copies: %q", c1)
	}
	if got := len(a.Copy(nil)); got != 0 {
		t.Fatalf("Copy(nil) = %d bytes", got)
	}
	big := make([]byte, arenaMaxCopy+1)
	if got := a.Copy(big); len(got) != len(big) {
		t.Fatalf("oversized copy truncated: %d != %d", len(got), len(big))
	}
}

// TestArenaConcurrentCopyRace hammers one arena from many goroutines
// (the parallel executor digests rows concurrently) while epochs seal
// underneath — run under -race this is the aliasing check: no slab
// region is ever written twice or shared between callers.
func TestArenaConcurrentCopyRace(t *testing.T) {
	var a Arena
	const goroutines = 8
	const copies = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // epoch sealer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.SealEpoch()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var copiers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		copiers.Add(1)
		go func(g int) {
			defer copiers.Done()
			payload := bytes.Repeat([]byte{byte(g + 1)}, 512+g)
			var mine [][]byte
			for i := 0; i < copies; i++ {
				mine = append(mine, a.Copy(payload))
			}
			for _, c := range mine {
				if len(c) != len(payload) || c[0] != byte(g+1) || c[len(c)-1] != byte(g+1) {
					t.Errorf("goroutine %d: corrupted copy", g)
					return
				}
			}
		}(g)
	}
	copiers.Wait()
	close(stop)
	wg.Wait()
}

// TestArenaEpochReclaim proves a sealed slab's memory is returned to the
// collector once the last reference into it is dropped — the epoch
// reclamation contract. The finalizer is set on the slab's first byte,
// which is the allocation start for the first copy after a seal.
func TestArenaEpochReclaim(t *testing.T) {
	var a Arena
	a.SealEpoch() // next Copy starts a fresh slab at offset 0
	freed := make(chan struct{})
	func() {
		c := a.Copy([]byte("epoch resident"))
		runtime.SetFinalizer(&c[0], func(*byte) { close(freed) })
		// More residents of the same epoch.
		for i := 0; i < 100; i++ {
			a.Copy(bytes.Repeat([]byte{byte(i)}, 256))
		}
	}()
	// While the epoch is open the arena itself pins the slab.
	runtime.GC()
	select {
	case <-freed:
		t.Fatal("open-epoch slab was collected while the arena still references it")
	default:
	}
	a.SealEpoch() // drop the arena's reference; no rows hold one either
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("sealed slab was not reclaimed after all references were dropped")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestSharedRowEncodingInArena checks that racing ensure() initializers
// on one shared row stay consistent with slab backing: every caller sees
// identical bytes, and the bytes match a direct encoding.
func TestSharedRowEncodingInArena(t *testing.T) {
	row := &SharedRow{
		Name: "node-1",
		Attrs: value.Map{
			"addr": value.String("n1"),
			"load": value.Float(0.25),
			"subs": value.Bytes(bytes.Repeat([]byte{0x5A}, 128)),
		},
		Owner: "n1",
	}
	want := row.Attrs.AppendBinary(nil)
	const goroutines = 8
	encs := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			encs[g] = row.Encoding()
		}(g)
	}
	wg.Wait()
	for g, enc := range encs {
		if !bytes.Equal(enc, want) {
			t.Fatalf("goroutine %d saw encoding %x, want %x", g, enc, want)
		}
	}
	st := RowArena().Stats()
	if st.Copies == 0 {
		t.Fatal("row encoding did not go through the arena")
	}
}
