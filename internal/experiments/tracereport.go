package experiments

import (
	"fmt"
	"io"

	"newswire/internal/trace"
)

// TraceReport summarizes one traced cluster run: the canonical span-set
// fingerprint (the serial-vs-parallel equality gate), the slowest
// deliveries with their reconstructed hop paths, and every abandoned
// reliable forward. Attached to Table.Traces, which Render ignores — the
// table text stays bit-identical between traced and untraced runs.
type TraceReport struct {
	Label       string           `json:"label"`
	SpanCount   int              `json:"span_count"`
	Fingerprint string           `json:"fingerprint"`
	Slowest     []trace.Delivery `json:"slowest,omitempty"`
	Failed      []trace.Span     `json:"failed,omitempty"`
}

// BuildTraceReport digests a canonical span slice: the topN slowest
// deliveries explained by trace.Slowest, and delivery-fail spans carried
// verbatim.
func BuildTraceReport(label string, spans []trace.Span, topN int) *TraceReport {
	r := &TraceReport{
		Label:       label,
		SpanCount:   len(spans),
		Fingerprint: trace.Fingerprint(spans),
		Slowest:     trace.Slowest(spans, topN),
	}
	for _, s := range spans {
		if s.Kind == trace.KindDeliveryFail {
			r.Failed = append(r.Failed, s)
		}
	}
	return r
}

// Render writes the report as indented text under a "-- trace" header,
// one line per hop with the per-hop latency delta.
func (r *TraceReport) Render(w io.Writer) {
	fmt.Fprintf(w, "-- trace %s: %d spans, fingerprint %.12s…\n",
		r.Label, r.SpanCount, r.Fingerprint)
	for i, d := range r.Slowest {
		fmt.Fprintf(w, "   slowest[%d] %s -> %s in %v\n", i, d.Key, d.Node, d.Latency)
		for _, h := range d.Hops {
			s := h.Span
			line := fmt.Sprintf("     %-8s %s", s.Kind, s.Node)
			if s.To != "" {
				line += " -> " + s.To
			}
			if s.Zone != "" {
				line += "  zone=" + s.Zone
			}
			if s.Hop > 0 {
				line += fmt.Sprintf("  hop=%d", s.Hop)
			}
			if h.Delta > 0 {
				line += fmt.Sprintf("  +%v", h.Delta)
			}
			if s.Note != "" {
				line += "  (" + s.Note + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, s := range r.Failed {
		fmt.Fprintf(w, "   failed  %s at %s -> %s after attempt %d\n",
			s.Key, s.Node, s.To, s.Attempt)
	}
	fmt.Fprintln(w)
}
