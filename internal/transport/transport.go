// Package transport abstracts how NewsWire nodes exchange wire.Messages.
//
// Two implementations exist: the discrete-event simulated network in
// internal/sim (virtual time, configurable latency/loss/partitions, scales
// to ~10⁵ nodes in one process) and the TCP transport in this package
// (length-prefixed frames of the wire package's binary codec, for live
// multi-process clusters). Protocol code sees only this interface, so the
// same agent runs unchanged in both worlds.
package transport

import (
	"newswire/internal/metrics"
	"newswire/internal/wire"
)

// Handler consumes an inbound message. Transports guarantee the message
// passed Validate. Handlers must not block for long: the simulated
// transport runs them on the single simulator goroutine, and the TCP
// transport runs them on the connection's read goroutine.
type Handler func(msg *wire.Message)

// Transport sends messages to peers by address. Send is asynchronous and
// best-effort — delivery may silently fail, exactly like the Internet the
// paper targets; the protocols above are built to tolerate loss.
type Transport interface {
	// Addr returns this endpoint's own address, which peers use to reach
	// it and which appears in Message.From.
	Addr() string
	// Send enqueues msg for delivery to the peer at to. It returns an
	// error only for local problems (closed transport, unreachable
	// address format); a nil error is not a delivery guarantee.
	Send(to string, msg *wire.Message) error
	// Close releases the endpoint. Further Sends fail.
	Close() error
}

// FrameSender is implemented by transports that can ship a pre-encoded
// wire.Frame, letting fan-out paths encode a message once and enqueue the
// same immutable bytes to N peers instead of re-serializing per
// recipient. The simulated transport deliberately does not implement it:
// it passes Message values by reference, so there is nothing to encode
// and the deterministic scheduler stays untouched.
type FrameSender interface {
	// NewFrame encodes msg with this endpoint's own address stamped as
	// the sender. msg is only read, never written, so one message can be
	// framed and fanned out concurrently.
	NewFrame(msg *wire.Message) (wire.Frame, error)
	// SendFrame enqueues an encoded frame for delivery to the peer at to,
	// with Send's best-effort semantics.
	SendFrame(to string, f wire.Frame) error
}

// StatsSource is implemented by transports that keep data-path counters
// and can snapshot them (the TCP transport; the simulated transport has
// its own byte-accounting instead).
type StatsSource interface {
	TransportStats() Stats
}

// MetricsFiller is implemented by transports that keep data-path counters
// and can mirror them into a metrics registry (under transport_* names).
// Mirroring must be idempotent — counters synced, not added — matching
// the node's FillMetrics contract.
type MetricsFiller interface {
	FillMetrics(reg *metrics.Registry)
}
