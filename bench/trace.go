package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"newswire"
	"newswire/internal/trace"
)

// spanLog is the harness's own recorder, installed through Config.Tracer
// on every node of a traced live run. While off it hands spans to the
// bounded ring the product installs by default, so the untraced arm runs
// the product's own configuration; while on it keeps every span in memory
// until the run ends.
type spanLog struct {
	on   *atomic.Bool
	ring *newswire.TraceRing
	mu   sync.Mutex
	kept []trace.Span
}

func (s *spanLog) Record(sp trace.Span) {
	if !s.on.Load() {
		s.ring.Record(sp)
		return
	}
	s.mu.Lock()
	s.kept = append(s.kept, sp)
	s.mu.Unlock()
}

// spanLogs builds one recorder per node behind a shared switch.
func spanLogs(nodes int) (*atomic.Bool, []*spanLog) {
	on := new(atomic.Bool)
	logs := make([]*spanLog, nodes)
	for i := range logs {
		logs[i] = &spanLog{on: on, ring: newswire.NewTraceRing(0)}
	}
	return on, logs
}

func collect(logs []*spanLog) []trace.Span {
	var all []trace.Span
	for _, s := range logs {
		s.mu.Lock()
		all = append(all, s.kept...)
		s.mu.Unlock()
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].At.Before(all[b].At) })
	return all
}

// pathStats is what the product's spans say about the items of one phase.
type pathStats struct {
	hopWaitUs     []float64 // forward recorded at the sender -> next span at the receiver, sorted
	zoneForwards  float64   // per item: forwards toward a child zone
	leafFanouts   float64   // per item: nodes that sent final-delivery copies
	spansPerItem  float64
	itemsObserved int
}

// analysePaths joins the spans of each item by trace ID and walks every
// delivery's path back to its publisher. keys lists the envelope keys of
// the items to look at.
func analysePaths(spans []trace.Span, keys []string) pathStats {
	byTrace := make(map[uint64][]trace.Span)
	for _, sp := range spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	var st pathStats
	var zoneFwd, fanouts, total int
	for _, key := range keys {
		group := byTrace[trace.DeriveTraceID(key)]
		if len(group) == 0 {
			continue
		}
		st.itemsObserved++
		total += len(group)
		fanNodes := make(map[string]bool)
		for _, sp := range group {
			switch {
			case sp.Kind == trace.KindForward && sp.Note == "deliver-copy":
				fanNodes[sp.Node] = true
			case sp.Kind == trace.KindForward:
				zoneFwd++
			case sp.Kind == trace.KindDeliver:
				path := trace.PathTo(group, key, sp.Node)
				for i := 0; i+1 < len(path); i++ {
					if path[i].Kind == trace.KindForward {
						st.hopWaitUs = append(st.hopWaitUs, float64(path[i+1].At.Sub(path[i].At))/1e3)
					}
				}
			}
		}
		fanouts += len(fanNodes)
	}
	if st.itemsObserved > 0 {
		n := float64(st.itemsObserved)
		st.zoneForwards = float64(zoneFwd) / n
		st.leafFanouts = float64(fanouts) / n
		st.spansPerItem = float64(total) / n
	}
	sort.Float64s(st.hopWaitUs)
	return st
}

// spanFileItems bounds how many items' spans go to disk.
const spanFileItems = 500

// spanLine is one line of the span file. Harness spans (item, core.publish,
// deliver) have a start and an end; the product's spans are instants.
type spanLine struct {
	Trace   string  `json:"trace"`
	Span    string  `json:"span"`
	Parent  string  `json:"parent,omitempty"`
	Node    string  `json:"node,omitempty"`
	To      string  `json:"to,omitempty"`
	Hop     int     `json:"hop,omitempty"`
	Note    string  `json:"note,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// itemSpans is what the harness knows about one item, times in ns since
// the phase epoch.
type itemSpans struct {
	key                  string
	publisher            string
	due, done            int64 // done < 0: incomplete
	publishAt, publishNs int64
	deliveredAt          map[string]int64 // node address -> arrival
}

// writeSpans writes the harness's spans and the product's spans of the
// given items, joined by trace ID, one JSON object per line.
func writeSpans(path string, epoch time.Time, items []itemSpans, spans []trace.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	wanted := make(map[uint64]bool, len(items))
	for _, it := range items {
		id := trace.DeriveTraceID(it.key)
		wanted[id] = true
		tid := fmt.Sprintf("%016x", id)
		end := it.done
		if end < 0 {
			end = it.due
		}
		lines := []spanLine{
			{Trace: tid, Span: "item", StartUs: us(it.due), EndUs: us(end)},
			{Trace: tid, Span: "core.publish", Parent: "item", Node: it.publisher, StartUs: us(it.publishAt), EndUs: us(it.publishAt + it.publishNs)},
		}
		nodes := make([]string, 0, len(it.deliveredAt))
		for node := range it.deliveredAt {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			at := us(it.deliveredAt[node])
			lines = append(lines, spanLine{Trace: tid, Span: "deliver", Parent: "item", Node: node, StartUs: at, EndUs: at})
		}
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, sp := range spans {
		if !wanted[sp.TraceID] {
			continue
		}
		at := us(int64(sp.At.Sub(epoch)))
		err := enc.Encode(spanLine{
			Trace: fmt.Sprintf("%016x", sp.TraceID), Span: "multicast." + sp.Kind.String(), Parent: "item",
			Node: sp.Node, To: sp.To, Hop: sp.Hop, Note: sp.Note, StartUs: at, EndUs: at,
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// itemSpansOf extracts the harness's view of the first n items of a phase
// from its ledger.
func itemSpansOf(l *ledger, n int, key func(g int) string, publisher func(g int) string, addr func(node int) string, publishAt, publishNs []int64) []itemSpans {
	if n > len(l.due) {
		n = len(l.due)
	}
	out := make([]itemSpans, n)
	for i := range out {
		g := l.first + i
		due := l.due[i].Load()
		is := itemSpans{
			key: key(g), publisher: publisher(g), due: due, done: -1,
			deliveredAt: make(map[string]int64),
		}
		if publishAt != nil {
			is.publishAt, is.publishNs = publishAt[g], publishNs[g]
		} else {
			is.publishAt = due
		}
		if d := l.done[i].Load(); d > 0 {
			is.done = due + d - 1
		}
		for node := 0; node < l.nodes; node++ {
			if v := l.cells[i*l.nodes+node].Load(); v > 0 {
				is.deliveredAt[addr(node)] = due + v - 1
			}
		}
		out[i] = is
	}
	return out
}
