package astrolabe

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"newswire/internal/value"
	"newswire/internal/wire"
)

// TestDecodedRowsMergedWhileReadBufferReused decodes a delta of two leaf
// rows — strings, a byte array and a string list among their attributes —
// from a read buffer, and has two agents merge the same decoded rows at
// once, aggregate them and encode their tables for the next exchange,
// while the transport reads the next frames into that buffer. Under -race,
// a decoded row that still viewed the read buffer is a reported race.
func TestDecodedRowsMergedWhileReadBufferReused(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z", "/z", "/z"}, nil)
	c.runRounds(2)
	var rows []wire.RowUpdate
	for _, src := range c.agents[2:] {
		src.SetAttrs(value.Map{
			"tag":   value.String("from " + src.Name()),
			"blob":  value.Bytes(append(make([]byte, 40), 1, 2, 3)),
			"names": value.Strings([]string{src.Name(), src.Addr()}),
		})
		u := src.OwnRowUpdate()
		u.Issued = u.Issued.Add(time.Hour) // fresher than any replica
		rows = append(rows, u)
	}
	frame, err := wire.Encode(&wire.Message{Kind: wire.KindGossipDelta, From: c.agents[2].Addr(),
		GossipDelta: &wire.GossipDelta{FromZone: "/z", Rows: rows}})
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(frame) // the transport's read buffer
	msg, err := wire.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the transport reading the next frames into its buffer
		defer wg.Done()
		for i := 0; i < 64; i++ {
			for j := range buf {
				buf[j] = byte(i)
			}
		}
	}()
	for _, a := range c.agents[:2] {
		go func(a *Agent) {
			defer wg.Done()
			a.MergeRows(msg.GossipDelta.Rows)
			table, _ := a.Table("/z")
			var out []wire.RowUpdate
			for _, r := range table {
				out = append(out, wire.RowUpdate{Zone: "/z", Name: r.Name, Attrs: r.Attrs, Issued: r.Issued,
					Owner: r.Owner, Signer: r.Signer, Sig: r.Sig})
			}
			if _, err := wire.Encode(&wire.Message{Kind: wire.KindGossipDelta, From: a.Addr(),
				GossipDelta: &wire.GossipDelta{FromZone: "/z", Rows: out}}); err != nil {
				t.Error(err)
			}
		}(a)
	}
	wg.Wait()

	for _, a := range c.agents[:2] {
		for _, src := range c.agents[2:] {
			r, ok := a.Row("/z", src.Name())
			if !ok {
				t.Fatalf("%s never merged %s's row", a.Name(), src.Name())
			}
			if tag, _ := r.Attrs["tag"].AsString(); tag != "from "+src.Name() {
				t.Errorf("%s holds %s's tag as %q", a.Name(), src.Name(), tag)
			}
			if names, _ := r.Attrs["names"].RawStrings(); len(names) != 2 || names[1] != src.Addr() {
				t.Errorf("%s holds %s's names as %q", a.Name(), src.Name(), names)
			}
		}
	}
}
