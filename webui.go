package newswire

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/cache"
	"newswire/internal/core"
	"newswire/internal/metrics"
	"newswire/internal/multicast"
	"newswire/internal/pubsub"
	"newswire/internal/sim"
	"newswire/internal/trace"
	"newswire/internal/transport"
)

// WebUI serves the node-status web interface the paper promises for the
// user application (§10: "a full user control application ... with an
// additional web interface for access"). It exposes:
//
//	GET /                    – human-readable status page
//	GET /status.json         – machine-readable node status (incl. gossip/multicast counters)
//	GET /items.json          – recent items from the message cache
//	GET /zones.json          – the node's replicated zone tables (summarized)
//	GET /trace.json          – recent delivery trace spans (live trace ring);
//	                           ?trace=<id> filters to one trace
//	GET /cluster-health.json – cluster-wide health rollup from the local root table
//	GET /metrics             – Prometheus text exposition of the node's counters
//	GET /debug/pprof/*       – Go profiling endpoints (only with EnablePprof)
//
// Mount it on any http.Server; cmd/newswired wires it to -http.
type WebUI struct {
	node       *core.Node
	reg        *metrics.Registry
	ring       *trace.Ring            // nil serves an empty /trace.json
	engineInfo func() sim.EngineStats // nil omits the engine section
	pprof      bool
}

// EnablePprof mounts the net/http/pprof profiling endpoints under
// /debug/pprof/ on the next Handler call. Off by default: the profiler
// exposes goroutine stacks and heap contents, which an operator must opt
// into exposing (cmd/newswired's -pprof flag; DESIGN.md §12 documents the
// profiling workflow).
func (ui *WebUI) EnablePprof() { ui.pprof = true }

// SetEngineStatsFunc installs a provider for the event engine's queue
// statistics (pending events, high-water mark, fired/cancelled totals),
// added to /status.json as an "engine" section. Simulation harnesses
// pass their engine's Stats method; live nodes have no event engine and
// leave it unset.
func (ui *WebUI) SetEngineStatsFunc(fn func() sim.EngineStats) { ui.engineInfo = fn }

// NewWebUI returns a handler set for the given node. LiveNode.WebUI wires
// the node's trace ring in as well.
func NewWebUI(node *Node) *WebUI {
	return &WebUI{node: node, reg: metrics.NewRegistry()}
}

// Handler returns the mux serving every endpoint.
func (ui *WebUI) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", ui.handleIndex)
	mux.HandleFunc("/status.json", ui.handleStatus)
	mux.HandleFunc("/items.json", ui.handleItems)
	mux.HandleFunc("/zones.json", ui.handleZones)
	mux.HandleFunc("/trace.json", ui.handleTrace)
	mux.HandleFunc("/cluster-health.json", ui.handleClusterHealth)
	mux.HandleFunc("/metrics", ui.handleMetrics)
	if ui.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusDoc is the /status.json schema.
type statusDoc struct {
	Name     string   `json:"name"`
	Addr     string   `json:"addr"`
	Zone     string   `json:"zone"`
	Subjects []string `json:"subjects"`
	// Queries are the node's predicate subscriptions in canonical form
	// (ModePredicate; empty in ModeBloom).
	Queries    []string             `json:"queries,omitempty"`
	Delivered  int64                `json:"delivered"`
	CacheItems int                  `json:"cacheItems"`
	Publishers []string             `json:"publishers"`
	Gossip     astrolabe.Stats      `json:"gossip"`
	Multicast  multicast.Stats      `json:"multicast"`
	Routing    routingDoc           `json:"routing"`
	Cache      cache.Stats          `json:"cache"`
	Runtime    metrics.RuntimeStats `json:"runtime"`
	Engine     *sim.EngineStats     `json:"engine,omitempty"`
	// Transport carries the live TCP data-path counters; omitted on the
	// simulated transport, which has no sockets to count.
	Transport *transport.Stats `json:"transport,omitempty"`
	// ClockOffsets are the per-peer clock-offset estimates from the TCP
	// transport's sync handshake; omitted in simulation.
	ClockOffsets map[string]transport.ClockOffset `json:"clockOffsets,omitempty"`
}

// routingDoc is the routing-precision section of /status.json: how often
// the subscription summaries said "forward", how the leaf's exact check
// resolved those forwards, and how many subgroup filters are in play.
type routingDoc struct {
	Forwards           int64 `json:"forwards"`
	ExactMatches       int64 `json:"exactMatches"`
	FalsePositiveDrops int64 `json:"falsePositiveDrops"`
	SubgroupTests      int64 `json:"subgroupTests"`
	SubgroupFilters    int   `json:"subgroupFilters"`
}

func (ui *WebUI) status() statusDoc {
	rs := ui.node.RoutingStats()
	doc := statusDoc{
		Name:       ui.node.Name(),
		Addr:       ui.node.Addr(),
		Zone:       ui.node.ZonePath(),
		Subjects:   ui.node.Subjects(),
		Queries:    ui.node.Queries(),
		Delivered:  ui.node.Delivered(),
		CacheItems: ui.node.Cache().Len(),
		Publishers: ui.node.KnownPublishers(),
		Gossip:     ui.node.Agent().Stats(),
		Multicast:  ui.node.Router().Stats(),
		Routing: routingDoc{
			Forwards:           rs.Forwards,
			ExactMatches:       rs.ExactMatches,
			FalsePositiveDrops: rs.FalsePositiveDrops,
			SubgroupTests:      rs.SubgroupTests,
			SubgroupFilters:    ui.node.SubgroupFilters(),
		},
		Cache:   ui.node.Cache().Stats(),
		Runtime: metrics.ReadRuntime(),
	}
	if ui.engineInfo != nil {
		st := ui.engineInfo()
		doc.Engine = &st
	}
	if ts, ok := ui.node.TransportStats(); ok {
		doc.Transport = &ts
	}
	if offs := ui.node.ClockOffsets(); len(offs) > 0 {
		doc.ClockOffsets = offs
	}
	return doc
}

func (ui *WebUI) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, ui.status())
}

// traceDoc is the /trace.json schema.
type traceDoc struct {
	Recorded int64        `json:"recorded"` // spans ever recorded, incl. overwritten
	Spans    []trace.Span `json:"spans"`    // retained spans, oldest first
}

func (ui *WebUI) handleTrace(w http.ResponseWriter, r *http.Request) {
	doc := traceDoc{Spans: []trace.Span{}}
	if ui.ring != nil {
		doc.Recorded = ui.ring.Recorded()
		doc.Spans = ui.ring.Spans()
	}
	if q := r.URL.Query().Get("trace"); q != "" {
		id, err := strconv.ParseUint(q, 0, 64)
		if err != nil {
			http.Error(w, "trace: want a decimal or 0x-hex trace id", http.StatusBadRequest)
			return
		}
		if filtered := trace.ByTrace(doc.Spans, id); filtered != nil {
			doc.Spans = filtered
		} else {
			doc.Spans = []trace.Span{}
		}
	}
	writeJSON(w, doc)
}

// clusterHealthDoc is the /cluster-health.json schema: the cluster-wide
// rollup plus one summary per top-level zone, all computed from this
// node's local replicated tables.
type clusterHealthDoc struct {
	Node    string                        `json:"node"`
	Zone    string                        `json:"zone"`
	Cluster core.HealthSummary            `json:"cluster"`
	Zones   map[string]core.HealthSummary `json:"zones,omitempty"`
}

func (ui *WebUI) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	summary, ok := ui.node.ClusterHealth()
	if !ok {
		http.Error(w, "root table not replicated yet", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, clusterHealthDoc{
		Node:    ui.node.Name(),
		Zone:    ui.node.ZonePath(),
		Cluster: summary,
		Zones:   ui.node.ZoneHealth(),
	})
}

func (ui *WebUI) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Mirror the node's cumulative counters into the registry at scrape
	// time (SyncTo is idempotent), then render the exposition.
	ui.node.FillMetrics(ui.reg)
	ui.reg.Handler().ServeHTTP(w, r)
}

// itemDoc is one /items.json entry.
type itemDoc struct {
	Key       string    `json:"key"`
	Publisher string    `json:"publisher"`
	Headline  string    `json:"headline"`
	Subjects  []string  `json:"subjects"`
	Urgency   int       `json:"urgency"`
	Published time.Time `json:"published"`
}

// recentItems returns the newest n cached items, newest first.
func (ui *WebUI) recentItems(n int) []itemDoc {
	envs, _ := ui.node.Cache().Since(time.Time{}, nil, 0) // oldest first
	envs = envs[max(0, len(envs)-n):]
	docs := make([]itemDoc, 0, len(envs))
	for i := len(envs) - 1; i >= 0; i-- {
		env := &envs[i]
		doc := itemDoc{
			Key:       env.Key(),
			Publisher: env.Publisher,
			Subjects:  env.Subjects,
			Urgency:   env.Urgency,
			Published: env.Published,
		}
		if it, err := pubsub.DecodeItem(env); err == nil {
			doc.Headline = it.Headline
		}
		docs = append(docs, doc)
	}
	return docs
}

func (ui *WebUI) handleItems(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, ui.recentItems(100))
}

// zoneDoc summarizes one replicated table row.
type zoneDoc struct {
	Zone    string   `json:"zone"`
	Row     string   `json:"row"`
	Members int64    `json:"members,omitempty"`
	Addr    string   `json:"addr,omitempty"`
	Reps    []string `json:"reps,omitempty"`
}

func (ui *WebUI) zones() []zoneDoc {
	var docs []zoneDoc
	for _, zone := range ui.node.Agent().Chain() {
		rows, ok := ui.node.Agent().Table(zone)
		if !ok {
			continue
		}
		for _, row := range rows {
			doc := zoneDoc{Zone: zone, Row: row.Name}
			doc.Members, _ = row.Attrs[astrolabe.AttrMembers].AsInt()
			doc.Addr, _ = row.Attrs[astrolabe.AttrAddr].AsString()
			doc.Reps, _ = row.Attrs[astrolabe.AttrReps].AsStrings()
			docs = append(docs, doc)
		}
	}
	return docs
}

func (ui *WebUI) handleZones(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, ui.zones())
}

func (ui *WebUI) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	st := ui.status()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>NewsWire — %s</title></head><body>",
		html.EscapeString(st.Name))
	fmt.Fprintf(w, "<h1>NewsWire node %s</h1>", html.EscapeString(st.Name))
	fmt.Fprintf(w, "<p>address <code>%s</code>, zone <code>%s</code>, %d items delivered, %d cached</p>",
		html.EscapeString(st.Addr), html.EscapeString(st.Zone), st.Delivered, st.CacheItems)

	fmt.Fprint(w, "<h2>Subscriptions</h2><ul>")
	for _, s := range st.Subjects {
		fmt.Fprintf(w, "<li><code>%s</code></li>", html.EscapeString(s))
	}
	for _, q := range st.Queries {
		fmt.Fprintf(w, "<li>query <code>%s</code></li>", html.EscapeString(q))
	}
	fmt.Fprint(w, "</ul>")

	fmt.Fprint(w, "<h2>Known publishers</h2><ul>")
	for _, p := range st.Publishers {
		fmt.Fprintf(w, "<li>%s</li>", html.EscapeString(p))
	}
	fmt.Fprint(w, "</ul>")

	fmt.Fprint(w, "<h2>Recent items</h2><table border='1' cellpadding='4'>")
	fmt.Fprint(w, "<tr><th>published</th><th>key</th><th>headline</th><th>subjects</th></tr>")
	for _, it := range ui.recentItems(25) {
		fmt.Fprintf(w, "<tr><td>%s</td><td><code>%s</code></td><td>%s</td><td>%s</td></tr>",
			it.Published.Format("15:04:05"),
			html.EscapeString(it.Key),
			html.EscapeString(it.Headline),
			html.EscapeString(fmt.Sprint(it.Subjects)))
	}
	fmt.Fprint(w, "</table>")
	fmt.Fprint(w, `<p><a href="/status.json">status.json</a> · <a href="/items.json">items.json</a> · <a href="/zones.json">zones.json</a> · <a href="/trace.json">trace.json</a> · <a href="/cluster-health.json">cluster-health.json</a> · <a href="/metrics">metrics</a></p>`)
	fmt.Fprint(w, "</body></html>")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
