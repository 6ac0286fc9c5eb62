package main

// The -collect mode: the observability client for a live cluster. It
// polls each node's /cluster-health.json until the gossip-aggregated
// rollup has converged (every node sees the expected member count from
// its own local table), then joins the nodes' /trace.json spans by trace
// ID into cross-process delivery traces, corrects their timestamps with
// the clock offsets the transports measured (/status.json clockOffsets),
// and reports the slowest delivery paths hop by hop.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"

	"newswire/internal/trace"
)

type collectOptions struct {
	nodes   []string
	expect  int
	timeout time.Duration
	key     string
	top     int
	log     *slog.Logger
}

// healthDoc mirrors the /cluster-health.json fields the collector needs;
// decoding into a local struct keeps this an honest external consumer of
// the published schema.
type healthDoc struct {
	Node    string `json:"node"`
	Cluster struct {
		Nodes            int64   `json:"nodes"`
		Retries          int64   `json:"retries"`
		DeliveryFailures int64   `json:"deliveryFailures"`
		QueueDrops       int64   `json:"queueDrops"`
		WorstNode        string  `json:"worstNode"`
		LatencyCount     uint64  `json:"latencyCount"`
		LatencyP50       float64 `json:"latencyP50"`
		LatencyP99       float64 `json:"latencyP99"`
	} `json:"cluster"`
}

// statusDoc mirrors the /status.json fields the collector needs.
type statusDoc struct {
	Name         string `json:"name"`
	Addr         string `json:"addr"`
	ClockOffsets map[string]struct {
		Offset time.Duration `json:"offset"`
		RTT    time.Duration `json:"rtt"`
	} `json:"clockOffsets"`
}

type traceDoc struct {
	Spans []trace.Span `json:"spans"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func collectMain(o collectOptions) error {
	var nodes []string
	for _, n := range o.nodes {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !strings.Contains(n, "://") {
			n = "http://" + n
		}
		nodes = append(nodes, strings.TrimRight(n, "/"))
	}
	if len(nodes) == 0 {
		return fmt.Errorf("-collect needs -nodes")
	}
	if o.expect <= 0 {
		o.expect = len(nodes)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(o.timeout)

	// Phase 1: health convergence. Every node must serve the rollup from
	// its own replicated table and count at least the expected members.
	var last healthDoc
	for {
		converged := 0
		for _, n := range nodes {
			var doc healthDoc
			if err := getJSON(client, n+"/cluster-health.json", &doc); err != nil {
				o.log.Debug("health poll", "node", n, "err", err)
				continue
			}
			if doc.Cluster.Nodes >= int64(o.expect) {
				converged++
				last = doc
			}
		}
		if converged == len(nodes) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster health never converged: %d/%d nodes see >= %d members",
				converged, len(nodes), o.expect)
		}
		time.Sleep(250 * time.Millisecond)
	}
	o.log.Info("cluster health converged",
		"nodes", last.Cluster.Nodes,
		"latency_p50_ms", fmt.Sprintf("%.2f", last.Cluster.LatencyP50*1000),
		"latency_p99_ms", fmt.Sprintf("%.2f", last.Cluster.LatencyP99*1000),
		"latency_samples", last.Cluster.LatencyCount,
		"retries", last.Cluster.Retries,
		"delivery_failures", last.Cluster.DeliveryFailures,
		"queue_drops", last.Cluster.QueueDrops,
		"worst_node", last.Cluster.WorstNode)

	// Phase 2: per-node status for transport addresses and measured clock
	// offsets. Offsets are re-based onto the first node's clock: a span
	// recorded at time t on a node whose clock runs `off` ahead of the
	// reference happened at t-off on the reference's timeline.
	statuses := make([]statusDoc, len(nodes))
	for i, n := range nodes {
		if err := getJSON(client, n+"/status.json", &statuses[i]); err != nil {
			return fmt.Errorf("status %s: %w", n, err)
		}
	}
	ref := statuses[0]
	offsetOf := map[string]time.Duration{ref.Addr: 0}
	for _, st := range statuses[1:] {
		if e, ok := ref.ClockOffsets[st.Addr]; ok {
			offsetOf[st.Addr] = e.Offset
		} else if e, ok := st.ClockOffsets[ref.Addr]; ok {
			offsetOf[st.Addr] = -e.Offset // measured from the other side
		} else {
			o.log.Warn("no clock offset measured; assuming zero", "node", st.Addr)
			offsetOf[st.Addr] = 0
		}
		o.log.Debug("clock offset", "node", st.Addr, "offset", offsetOf[st.Addr])
	}

	// Phase 3: join traces. Spans from every node, timestamps corrected,
	// merged into the canonical order the path walker expects.
	var spans []trace.Span
	perNode := make(map[string]int)
	for i, n := range nodes {
		var doc traceDoc
		if err := getJSON(client, n+"/trace.json", &doc); err != nil {
			return fmt.Errorf("trace %s: %w", n, err)
		}
		for _, s := range doc.Spans {
			if off, ok := offsetOf[s.Node]; ok && off != 0 {
				s.At = s.At.Add(-off)
			}
			spans = append(spans, s)
		}
		perNode[statuses[i].Addr] += len(doc.Spans)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].At.Before(spans[j].At) })
	o.log.Info("traces fetched", "spans", len(spans), "processes", len(nodes))

	// Pick the trace to join: the requested key's, or the one whose spans
	// cover the most distinct processes (ties to the larger trace).
	id := uint64(0)
	if o.key != "" {
		id = trace.DeriveTraceID(o.key)
	} else {
		type spread struct{ procs, count int }
		byID := make(map[uint64]map[string]int)
		for _, s := range spans {
			if s.TraceID == 0 {
				continue
			}
			if byID[s.TraceID] == nil {
				byID[s.TraceID] = make(map[string]int)
			}
			byID[s.TraceID][s.Node]++
		}
		best := spread{}
		for tid, procs := range byID {
			total := 0
			for _, c := range procs {
				total += c
			}
			if len(procs) > best.procs || (len(procs) == best.procs && total > best.count) {
				best = spread{procs: len(procs), count: total}
				id = tid
			}
		}
	}
	joined := trace.ByTrace(spans, id)
	if len(joined) == 0 {
		return fmt.Errorf("no spans found for trace %#x", id)
	}
	procs := make(map[string]bool)
	for _, s := range joined {
		procs[s.Node] = true
	}
	if len(procs) < 2 {
		return fmt.Errorf("trace %#x has spans from only %d process(es); cross-process join failed", id, len(procs))
	}
	o.log.Info("cross-process trace joined",
		"trace", fmt.Sprintf("%#x", id),
		"key", joined[0].Key,
		"spans", len(joined),
		"processes", len(procs))
	t0 := joined[0].At
	for _, s := range joined {
		o.log.Info("span",
			"trace", fmt.Sprintf("%#x", id),
			"kind", s.Kind.String(),
			"node", s.Node,
			"zone", s.Zone,
			"to", s.To,
			"t_ms", fmt.Sprintf("%.3f", s.At.Sub(t0).Seconds()*1000))
	}

	// Phase 4: slowest delivery paths across every joined trace, by
	// corrected publish-to-deliver latency.
	for rank, d := range trace.Slowest(spans, o.top) {
		o.log.Info("slow path",
			"rank", rank+1,
			"key", d.Key,
			"dst", d.Node,
			"latency_ms", fmt.Sprintf("%.3f", d.Latency.Seconds()*1000))
		for hop, h := range d.Hops {
			o.log.Info("hop",
				"rank", rank+1, "hop", hop,
				"kind", h.Span.Kind.String(), "node", h.Span.Node, "to", h.Span.To,
				"dt_ms", fmt.Sprintf("%.3f", h.Delta.Seconds()*1000))
		}
	}
	return nil
}
