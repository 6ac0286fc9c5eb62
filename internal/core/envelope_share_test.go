package core

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/cache"
	"newswire/internal/multicast"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/value"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// leafView is one leaf zone, /z, of three members a, b and c; name is the
// viewing member.
type leafView struct{ name string }

var leafMembers = []string{"a", "b", "c"}

func (v leafView) Addr() string     { return v.name + ":1" }
func (v leafView) Name() string     { return v.name }
func (v leafView) ZonePath() string { return "/z" }
func (v leafView) Chain() []string  { return []string{astrolabe.RootZone, "/z"} }

func (v leafView) AppendTable(dst []astrolabe.Row, zone string) ([]astrolabe.Row, bool) {
	if zone != "/z" {
		return dst, false
	}
	for _, m := range leafMembers {
		dst = append(dst, astrolabe.Row{Name: m, Attrs: value.Map{astrolabe.AttrAddr: value.String(m + ":1")}})
	}
	return dst, true
}

func (v leafView) Row(zone, name string) (astrolabe.Row, bool) {
	rows, _ := v.AppendTable(nil, zone)
	for _, r := range rows {
		if r.Name == name {
			return r, true
		}
	}
	return astrolabe.Row{}, false
}

// frameSink is a frame transport that hands every frame it is given to
// whoever reads frames, while its sender goes on reading the envelope.
type frameSink struct {
	addr   string
	frames chan wire.Frame
}

func (s *frameSink) Addr() string                     { return s.addr }
func (s *frameSink) Send(string, *wire.Message) error { return nil }
func (s *frameSink) Close() error                     { return nil }
func (s *frameSink) SendFrame(_ string, f wire.Frame) error {
	s.frames <- f
	return nil
}

func (s *frameSink) NewFrame(m *wire.Message) (wire.Frame, error) {
	return wire.NewFrame(m, s.addr)
}

// TestDecodedEnvelopeSharedByConcurrentReaders decodes one forward from a
// read buffer and hands the message to the three members of a leaf
// zone at once. Each member fans it out in a shared frame (sendShared
// encodes the envelope), caches it and decodes the item for its OnItem
// reader; meanwhile other goroutines decode the frames, answer state
// transfers from the cache, read the delivered items, and reuse the read
// buffer. Under -race, a write to any byte the envelope or an item views —
// or an envelope that still viewed the read buffer — is a reported race.
func TestDecodedEnvelopeSharedByConcurrentReaders(t *testing.T) {
	it := testItem("story-1", "tech/linux")
	it.Body = strings.Repeat("kernel news & more\n", 40)
	it.Byline = "A. Reporter"
	env, err := pubsub.EncodeItem(it, pubsub.ModeBloom, pubsub.DefaultGeometry, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.Encode(&wire.Message{Kind: wire.KindMulticast, From: "up:1",
		Multicast: &wire.Multicast{TargetZone: "/z", Hops: 1, Envelope: env}})
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(frame) // the transport's read buffer
	msg, err := wire.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}

	c, err := cache.New(cache.Config{Clock: vtime.Real{}})
	if err != nil {
		t.Fatal(err)
	}
	frames := make(chan wire.Frame, 2*len(leafMembers))
	items := make(chan *news.Item, len(leafMembers))
	routers := make([]*multicast.Router, len(leafMembers))
	for i, name := range leafMembers {
		r, err := multicast.NewRouter(multicast.Config{
			View:      leafView{name},
			Transport: &frameSink{addr: name + ":1", frames: frames},
			Rand:      newTestRand(int64(i)),
			Deliver: func(e *wire.ItemEnvelope) {
				c.Put(*e)
				it, err := pubsub.DecodeItem(e)
				if err != nil {
					t.Error(err)
				}
				items <- it
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = r
	}

	var readers, handlers sync.WaitGroup
	readers.Add(4)
	go func() { // the recipients of the shared frames
		defer readers.Done()
		for f := range frames {
			got, err := wire.Decode(f.Payload())
			if err != nil || !bytes.Equal(got.Multicast.Envelope.Payload, env.Payload) {
				t.Errorf("fan-out frame decodes to %v, %v", got, err)
			}
		}
	}()
	go func() { // OnItem readers
		defer readers.Done()
		for got := range items {
			if !reflect.DeepEqual(got, it) {
				t.Errorf("delivered item %+v, want %+v", got, it)
			}
		}
	}()
	stop := make(chan struct{})
	go func() { // state transfer answered from the cache
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			envs, _ := c.Since(time.Time{}, nil, 0)
			if _, err := wire.Encode(&wire.Message{Kind: wire.KindStateReply, From: "a:1",
				StateReply: &wire.StateReply{Envelopes: envs}}); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { // the transport reading the next frames into its buffer
		defer readers.Done()
		for i := 0; i < 64; i++ {
			for j := range buf {
				buf[j] = byte(i)
			}
		}
	}()
	for _, r := range routers {
		handlers.Add(1)
		go func(r *multicast.Router) {
			defer handlers.Done()
			r.HandleMessage(msg)
		}(r)
	}
	handlers.Wait()
	close(frames)
	close(items)
	close(stop)
	readers.Wait()
	if _, ok := c.Get(env.Key()); !ok {
		t.Error("the envelope never reached the cache")
	}
}
