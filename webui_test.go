package newswire_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"newswire"
)

// webUICluster builds a tiny cluster with one delivered item and returns
// the UI over node 1.
func webUICluster(t *testing.T) (*newswire.Cluster, *newswire.WebUI) {
	t.Helper()
	cluster, err := newswire.NewCluster(newswire.ClusterConfig{
		N: 4, Branching: 4, Seed: 404,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cluster.Nodes {
		if err := n.Subscribe("tech/linux"); err != nil {
			t.Fatal(err)
		}
	}
	cluster.RunRounds(6)
	item := &newswire.Item{
		Publisher: "slashdot", ID: "ui-item",
		Headline: "WebUI test story", Body: "body",
		Subjects:  []string{"tech/linux"},
		Published: cluster.Eng.Now(),
	}
	if err := cluster.Nodes[0].PublishItem(item, "", ""); err != nil {
		t.Fatal(err)
	}
	cluster.RunFor(5 * time.Second)
	ui := newswire.NewWebUI(cluster.Nodes[1])
	ui.SetEngineStatsFunc(cluster.Eng.Stats)
	return cluster, ui
}

func TestWebUIStatusJSON(t *testing.T) {
	_, ui := webUICluster(t)
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Name       string   `json:"name"`
		Zone       string   `json:"zone"`
		Subjects   []string `json:"subjects"`
		Delivered  int64    `json:"delivered"`
		Publishers []string `json:"publishers"`
		Gossip     struct {
			GossipsSent     int64 `json:"GossipsSent"`
			GossipBytesSent int64 `json:"GossipBytesSent"`
		} `json:"gossip"`
		Multicast struct {
			Delivered  int64 `json:"Delivered"`
			Duplicates int64 `json:"Duplicates"`
		} `json:"multicast"`
		Cache struct {
			Puts int64 `json:"Puts"`
		} `json:"cache"`
		Engine *struct {
			Pending   int    `json:"pending"`
			HighWater int    `json:"highWater"`
			Fired     uint64 `json:"fired"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Name != "node-1" {
		t.Errorf("name = %q", status.Name)
	}
	if status.Delivered != 1 {
		t.Errorf("delivered = %d", status.Delivered)
	}
	if len(status.Subjects) != 1 || status.Subjects[0] != "tech/linux" {
		t.Errorf("subjects = %v", status.Subjects)
	}
	if status.Gossip.GossipsSent == 0 || status.Gossip.GossipBytesSent == 0 {
		t.Errorf("gossip counters missing: %+v", status.Gossip)
	}
	if status.Multicast.Delivered != 1 {
		t.Errorf("multicast delivered = %d", status.Multicast.Delivered)
	}
	if status.Cache.Puts == 0 {
		t.Errorf("cache counters missing: %+v", status.Cache)
	}
	if status.Engine == nil {
		t.Fatal("engine section missing from status.json")
	}
	if status.Engine.Fired == 0 || status.Engine.HighWater == 0 {
		t.Errorf("engine counters missing: %+v", *status.Engine)
	}
}

func TestWebUIMetricsEndpoint(t *testing.T) {
	_, ui := webUICluster(t)
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE astrolabe_gossips_sent counter",
		"# TYPE multicast_delivered counter",
		"multicast_delivered 1",
		"# TYPE newswire_delivery_latency_seconds summary",
		"newswire_delivery_latency_seconds_count 1",
		"multicast_retries_sent",
		"multicast_failovers_total",
		"multicast_delivery_failures",
		"cache_puts",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Two scrapes must not double count (SyncTo mirror semantics).
	resp2, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf2 := new(strings.Builder)
	if _, err := io.Copy(buf2, resp2.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "multicast_delivered 1") {
		t.Errorf("second scrape drifted:\n%s", buf2.String())
	}
}

func TestWebUITraceJSONWithoutRing(t *testing.T) {
	_, ui := webUICluster(t)
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Recorded int64             `json:"recorded"`
		Spans    []json.RawMessage `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Recorded != 0 || len(doc.Spans) != 0 {
		t.Errorf("ring-less trace.json = recorded %d, %d spans; want empty", doc.Recorded, len(doc.Spans))
	}
}

func TestWebUIItemsJSON(t *testing.T) {
	_, ui := webUICluster(t)
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/items.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []struct {
		Key      string `json:"key"`
		Headline string `json:"headline"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Key != "slashdot/ui-item#0" {
		t.Fatalf("items = %+v", items)
	}
	if items[0].Headline != "WebUI test story" {
		t.Fatalf("headline = %q", items[0].Headline)
	}
}

// TestWebUIItemsJSONServesNewest: a node holding more items than the page
// lists serves the newest ones, newest first.
func TestWebUIItemsJSONServesNewest(t *testing.T) {
	cluster, ui := webUICluster(t) // holds ui-item, the oldest
	const extra = 147
	for i := 0; i < extra; i++ {
		item := &newswire.Item{
			Publisher: "slashdot", ID: fmt.Sprintf("s%03d", i),
			Headline: "story", Body: "body",
			Subjects:  []string{"tech/linux"},
			Published: cluster.Eng.Now().Add(time.Duration(i) * time.Millisecond),
		}
		if err := cluster.Nodes[1].PublishItem(item, "", ""); err != nil { // the node served
			t.Fatal(err)
		}
	}
	cluster.RunFor(5 * time.Second)
	if n := cluster.Nodes[1].Cache().Len(); n != extra+1 {
		t.Fatalf("node holds %d items, want %d", n, extra+1)
	}
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/items.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []struct {
		Key string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 100 {
		t.Fatalf("served %d items, want 100", len(items))
	}
	for i, it := range items {
		if want := fmt.Sprintf("slashdot/s%03d#0", extra-1-i); it.Key != want {
			t.Fatalf("item %d is %s, want %s", i, it.Key, want)
		}
	}
}

func TestWebUIZonesJSON(t *testing.T) {
	_, ui := webUICluster(t)
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/zones.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var zones []struct {
		Zone string `json:"zone"`
		Row  string `json:"row"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&zones); err != nil {
		t.Fatal(err)
	}
	if len(zones) < 4 {
		t.Fatalf("zones = %+v", zones)
	}
}

// TestWebUILiveTraceAndMetrics drives a real two-node TCP pair and checks
// the observability endpoints against it: the subscriber's /trace.json
// must show the delivery spans its default ring recorded, and /metrics
// must expose the delivery-latency summary in Prometheus text format.
func TestWebUILiveTraceAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test")
	}
	start := func(name string, peers []string) *newswire.LiveNode {
		t.Helper()
		ln, err := newswire.StartLive(newswire.LiveConfig{
			Node: newswire.Config{
				Name:           name,
				ZonePath:       "/live",
				GossipInterval: 200 * time.Millisecond,
			},
			Peers: peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	sub := start("sub", nil)
	if err := sub.Node().Subscribe("tech/linux"); err != nil {
		t.Fatal(err)
	}
	pub := start("pub", []string{sub.Addr()})

	deadline := time.Now().Add(10 * time.Second)
	for {
		rows, _ := pub.Node().Agent().Table("/live")
		if len(rows) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never converged: %d rows", len(rows))
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(time.Second) // subscription summaries aggregate

	item := &newswire.Item{
		Publisher: "slashdot", ID: "live-trace",
		Headline: "traced over real sockets", Body: "body",
		Subjects:  []string{"tech/linux"},
		Published: time.Now(),
	}
	if err := pub.Node().PublishItem(item, "", ""); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for sub.Node().Delivered() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("item never delivered to the subscriber")
		}
		time.Sleep(50 * time.Millisecond)
	}

	srv := httptest.NewServer(sub.WebUI().Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Recorded int64 `json:"recorded"`
		Spans    []struct {
			Kind string `json:"kind"`
			Key  string `json:"key"`
			Node string `json:"node"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Recorded == 0 || len(doc.Spans) == 0 {
		t.Fatalf("live trace ring empty: recorded %d, %d spans", doc.Recorded, len(doc.Spans))
	}
	foundDeliver := false
	for _, s := range doc.Spans {
		if s.Kind == "deliver" && s.Key == "slashdot/live-trace#0" {
			foundDeliver = true
		}
	}
	if !foundDeliver {
		t.Errorf("no deliver span for the published item in %d spans", len(doc.Spans))
	}

	resp2, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp2.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"newswire_delivery_latency_seconds_count 1",
		"multicast_delivered 1",
		"# TYPE astrolabe_gossips_sent counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("live /metrics missing %q", want)
		}
	}
}

func TestWebUIIndexHTML(t *testing.T) {
	_, ui := webUICluster(t)
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"NewsWire node node-1", "tech/linux", "WebUI test story", "slashdot"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// Unknown paths 404.
	resp2, err := srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("unknown path status = %d", resp2.StatusCode)
	}
}

// TestWebUIEndpointConsistency cross-checks the three observability
// surfaces over one node: /status.json counters, the /metrics exposition
// mirrored from the same counters, and the gossip-aggregated
// /cluster-health.json rollup must all describe the same cluster state.
func TestWebUIEndpointConsistency(t *testing.T) {
	cluster, err := newswire.NewCluster(newswire.ClusterConfig{
		N: 4, Branching: 4, Seed: 404,
		Customize: func(i int, cfg *newswire.Config) {
			cfg.HealthEvery = 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cluster.Nodes {
		if err := n.Subscribe("tech/linux"); err != nil {
			t.Fatal(err)
		}
	}
	cluster.RunRounds(6)
	item := &newswire.Item{
		Publisher: "slashdot", ID: "consistency-item",
		Headline: "endpoint consistency story", Body: "body",
		Subjects:  []string{"tech/linux"},
		Published: cluster.Eng.Now(),
	}
	if err := cluster.Nodes[0].PublishItem(item, "", ""); err != nil {
		t.Fatal(err)
	}
	cluster.RunFor(5 * time.Second)
	// Let every node fold the delivery into its next health digest
	// (HealthEvery=2) and gossip the digests back up.
	cluster.RunRounds(10)

	ui := newswire.NewWebUI(cluster.Nodes[1])
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var status struct {
		Delivered int64 `json:"delivered"`
		Multicast struct {
			Delivered int64 `json:"Delivered"`
		} `json:"multicast"`
		Routing struct {
			Forwards           int64 `json:"forwards"`
			ExactMatches       int64 `json:"exactMatches"`
			FalsePositiveDrops int64 `json:"falsePositiveDrops"`
			SubgroupTests      int64 `json:"subgroupTests"`
			SubgroupFilters    int64 `json:"subgroupFilters"`
		} `json:"routing"`
		Cache struct {
			Puts int64 `json:"Puts"`
		} `json:"cache"`
	}
	getJSON("/status.json", &status)

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Unlabeled sample lines ("name value") from the exposition.
	samples := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, value, ok := strings.Cut(line, " "); ok && !strings.Contains(name, "{") {
			samples[name] = value
		}
	}
	wantSample := func(name string, want int64) {
		t.Helper()
		if got := samples[name]; got != fmt.Sprint(want) {
			t.Errorf("/metrics %s = %q, /status.json says %d", name, got, want)
		}
	}
	wantSample("multicast_delivered", status.Multicast.Delivered)
	wantSample("newswire_delivered_items", status.Delivered)
	wantSample("cache_puts", status.Cache.Puts)
	wantSample("pubsub_forwards", status.Routing.Forwards)
	wantSample("pubsub_exact_matches", status.Routing.ExactMatches)
	wantSample("pubsub_false_positive_drops", status.Routing.FalsePositiveDrops)
	wantSample("pubsub_subgroup_tests", status.Routing.SubgroupTests)
	wantSample("pubsub_subgroup_filters", status.Routing.SubgroupFilters)
	if status.Delivered != 1 || status.Multicast.Delivered != 1 {
		t.Errorf("delivered = %d, multicast delivered = %d, want 1/1",
			status.Delivered, status.Multicast.Delivered)
	}
	// The node delivered its one subscribed item: the leaf exact check must
	// have recorded at least that one accept.
	if status.Routing.ExactMatches < 1 {
		t.Errorf("routing exactMatches = %d, want >= 1", status.Routing.ExactMatches)
	}

	var health struct {
		Node    string `json:"node"`
		Cluster struct {
			Nodes        int64  `json:"nodes"`
			LatencyCount uint64 `json:"latencyCount"`
		} `json:"cluster"`
		Zones map[string]struct {
			Nodes int64 `json:"nodes"`
		} `json:"zones"`
	}
	getJSON("/cluster-health.json", &health)
	if health.Node != "node-1" {
		t.Errorf("cluster-health node = %q", health.Node)
	}
	if health.Cluster.Nodes != 4 {
		t.Errorf("health rollup sees %d nodes, want all 4", health.Cluster.Nodes)
	}
	// Every node delivered the one item, and the merged latency sketch
	// must account for all four deliveries — not just this node's.
	if health.Cluster.LatencyCount != 4 {
		t.Errorf("merged latency count = %d, want 4 (one delivery per node)",
			health.Cluster.LatencyCount)
	}
	var zoneNodes int64
	for _, z := range health.Zones {
		zoneNodes += z.Nodes
	}
	if zoneNodes != health.Cluster.Nodes {
		t.Errorf("zone rollups cover %d nodes, cluster rollup %d", zoneNodes, health.Cluster.Nodes)
	}
}

// TestWebUIPredicateStatus surfaces predicate subscriptions and subgroup
// telemetry through the web UI.
func TestWebUIPredicateStatus(t *testing.T) {
	cluster, err := newswire.NewCluster(newswire.ClusterConfig{
		N: 4, Branching: 4, Seed: 404,
		Customize: func(i int, cfg *newswire.Config) {
			cfg.Mode = newswire.ModePredicate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := cluster.Nodes[1].SubscribeQuery("urgency >= 6 and subjects = 'tech/linux'")
	if err != nil {
		t.Fatal(err)
	}
	cluster.RunRounds(6)

	ui := newswire.NewWebUI(cluster.Nodes[1])
	srv := httptest.NewServer(ui.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Queries []string `json:"queries"`
		Routing struct {
			SubgroupFilters int `json:"subgroupFilters"`
		} `json:"routing"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Queries) != 1 || status.Queries[0] != canon {
		t.Errorf("status queries = %v, want [%s]", status.Queries, canon)
	}
	if status.Routing.SubgroupFilters == 0 {
		t.Error("no subgroup filters visible in zone tables")
	}

	page, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(page.Body)
	page.Body.Close()
	if !strings.Contains(string(body), "urgency") {
		t.Error("index page does not list the predicate subscription")
	}
}
