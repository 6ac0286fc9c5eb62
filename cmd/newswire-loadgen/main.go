// Command newswire-loadgen measures the live transport's fan-out
// throughput over real loopback sockets (experiment E11): one hub
// publishes news frames to thousands of subscriber connections and the
// tool reports sustained messages/sec, bytes/sec, delivery latency
// percentiles and drops.
//
// Usage:
//
//	newswire-loadgen -subs 10000                 # full E11 point
//	newswire-loadgen -subs 2000 -step 2s         # CI smoke size
//	newswire-loadgen -json artifacts/            # write BENCH_E11.json
//
// The subscriber sockets live in a child process (the binary re-executes
// itself with -sink), so hub and subscribers each stay within the
// per-process descriptor limit and the hub's send path is measured
// without 10k inbound readers in the same runtime. Every subscriber
// address is a distinct loopback IP (127.0.x.y), giving the hub one real
// connection per subscriber like distinct remote peers would.
//
// The sink cheaply validates framing on every frame and fully decodes
// every -decode-every'th one (checksum + delivery latency); a separate
// moderate-rate verification phase decodes every frame, which is where
// the zero-corruption figure comes from.
//
// Latency percentiles are clock-offset corrected: before the load arm the
// sink measures the hub's clock with the transport's NTP-style ping/pong
// estimator and adds the offset to every delivery-latency sample, so the
// reported p50/p99 survive publisher/subscriber clock skew (the two
// processes share a host here, so the correction is near zero — the
// mechanism is what E11 exercises).
//
// A second mode, -collect, turns the tool into the cluster observability
// client: it polls /cluster-health.json on a set of live newswired nodes
// until the gossip-aggregated health rollup converges, then joins the
// nodes' /trace.json spans by trace ID into cross-process delivery
// traces and reports the slowest paths with clock-offset-corrected
// timestamps (from /status.json's clockOffsets).
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"newswire/internal/metrics"
	"newswire/internal/transport"
	"newswire/internal/wire"
)

const maxFrame = 16 << 20

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "newswire-loadgen:", err)
		os.Exit(1)
	}
}

type options struct {
	subs        int
	payload     int
	pubRates    []int
	step        time.Duration
	queue       int
	decodeEvery int
	verifyItems int
	jsonDir     string
	log         *slog.Logger
}

// newLogger builds the process logger: text for humans, JSON for log
// shippers, leveled by -log-level.
func newLogger(jsonOut bool, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("newswire-loadgen", flag.ContinueOnError)
	var (
		subs        = fs.Int("subs", 10000, "subscriber connections")
		payload     = fs.Int("payload", 512, "news item payload bytes (min 16)")
		rates       = fs.String("pub-rates", "2,5,10,20,40,80", "comma-separated publish rates (items/sec), one step each")
		step        = fs.Duration("step", 3*time.Second, "duration of each rate step")
		queue       = fs.Int("queue", 0, "per-peer send queue length (0 = transport default)")
		decodeEvery = fs.Int("decode-every", 16, "sink fully decodes every Nth frame (latency+checksum); framing is checked on all")
		verifyItems = fs.Int("verify-items", 256, "items in the full-decode verification phase (0 = skip)")
		jsonDir     = fs.String("json", "", "directory to write BENCH_E11.json into")
		sink        = fs.Bool("sink", false, "internal: run as the subscriber sink child process")
		logJSON     = fs.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
		logLevel    = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")

		collect   = fs.Bool("collect", false, "observability-client mode: poll live nodes' health and join their traces instead of generating load")
		nodes     = fs.String("nodes", "", "collect: comma-separated base URLs of newswired -http endpoints")
		expect    = fs.Int("expect-nodes", 0, "collect: health digests the rollup must reach (0 = number of -nodes)")
		colWait   = fs.Duration("collect-timeout", 60*time.Second, "collect: how long to wait for health convergence and a joined trace")
		traceKey  = fs.String("key", "", "collect: item envelope key to trace (default: the trace spanning the most processes)")
		slowPaths = fs.Int("top", 3, "collect: slowest delivery paths to report (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sink {
		return sinkMain(*decodeEvery)
	}
	logger, err := newLogger(*logJSON, *logLevel)
	if err != nil {
		return err
	}
	if *collect {
		return collectMain(collectOptions{
			nodes: strings.Split(*nodes, ","), expect: *expect,
			timeout: *colWait, key: *traceKey, top: *slowPaths,
			log: logger,
		})
	}
	if *subs < 1 || *payload < 16 {
		return fmt.Errorf("need -subs >= 1 and -payload >= 16")
	}
	var pubRates []int
	for _, s := range strings.Split(*rates, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || r < 1 {
			return fmt.Errorf("bad -pub-rates entry %q", s)
		}
		pubRates = append(pubRates, r)
	}
	return loadgen(options{
		subs: *subs, payload: *payload, pubRates: pubRates, step: *step,
		queue: *queue, decodeEvery: *decodeEvery, verifyItems: *verifyItems,
		jsonDir: *jsonDir, log: logger,
	})
}

// raiseFDLimit lifts the soft descriptor limit to the hard one; tens of
// thousands of sockets per process need it on default configurations.
func raiseFDLimit() {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err == nil && rl.Cur < rl.Max {
		rl.Cur = rl.Max
		_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
}

// --- result schema (BENCH_E11.json) ---

type stepResult struct {
	TargetItemsPerSec int     `json:"target_items_per_sec"`
	PublishedItems    int64   `json:"published_items"`
	OfferedFrames     int64   `json:"offered_frames"`
	DeliveredFrames   int64   `json:"delivered_frames"`
	MsgsPerSec        float64 `json:"msgs_per_sec"`
	BytesPerSec       float64 `json:"bytes_per_sec"`
	P50Ms             float64 `json:"p50_ms"`
	P99Ms             float64 `json:"p99_ms"`
	Drops             int64   `json:"drops"`
	Corrupt           int64   `json:"corrupt"`
}

type armResult struct {
	Label string       `json:"label"`
	Steps []stepResult `json:"steps"`
	// Sustained figures come from the best step: what the path delivered
	// to subscribers, not what the publisher offered.
	SustainedMsgsPerSec  float64 `json:"sustained_msgs_per_sec"`
	SustainedBytesPerSec float64 `json:"sustained_bytes_per_sec"`
	// Clean percentiles come from the highest step that delivered >= 95%
	// of its offered frames with zero drops — latency before the queues
	// saturate, which is what a subscriber actually experiences. They are
	// clock-offset corrected: the sink adds ClockOffset (its measured
	// hub-minus-sink skew) to every sample before the quantile, so the
	// figures survive publisher/subscriber clock drift.
	CleanP50Ms   float64 `json:"clean_p50_ms"`
	CleanP99Ms   float64 `json:"clean_p99_ms"`
	TotalDrops   int64   `json:"total_drops"`
	TotalCorrupt int64   `json:"total_corrupt"`
	// ClockOffsetMs is the sink's NTP-style offset estimate against the
	// hub (positive = hub clock ahead) and ClockRTTMs the handshake round
	// trip it was taken from (best of several probes).
	ClockOffsetMs float64 `json:"clock_offset_ms"`
	ClockRTTMs    float64 `json:"clock_rtt_ms"`
	// Hub-side syscall accounting: frames per writev under the heaviest
	// step.
	MeanFramesPerFlush float64 `json:"mean_frames_per_flush,omitempty"`
}

type verifyResult struct {
	Codec   string `json:"codec"`
	Frames  int64  `json:"frames"`
	Decoded int64  `json:"decoded"`
	Corrupt int64  `json:"corrupt"`
}

type report struct {
	ID           string         `json:"id"`
	Title        string         `json:"title"`
	Subs         int            `json:"subs"`
	PayloadBytes int            `json:"payload_bytes"`
	QueueLen     int            `json:"queue_len"`
	StepSeconds  float64        `json:"step_seconds"`
	PubRates     []int          `json:"pub_rates"`
	DecodeEvery  int            `json:"decode_every"`
	Arms         []armResult    `json:"arms"`
	Verify       []verifyResult `json:"verify,omitempty"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"num_cpu"`
	WallSeconds  float64        `json:"wall_seconds"`
}

// --- parent: hub + orchestration ---

func loadgen(o options) error {
	if o.log == nil {
		o.log = slog.Default()
	}
	raiseFDLimit()
	start := time.Now()

	sink, err := startSink(o.decodeEvery)
	if err != nil {
		return err
	}
	defer sink.close()

	addrs := subscriberAddrs(o.subs, sink.port)

	rep := report{
		ID:    "E11",
		Title: "Live transport fan-out throughput (loopback)",
		Subs:  o.subs, PayloadBytes: o.payload, QueueLen: o.queue,
		StepSeconds: o.step.Seconds(), PubRates: o.pubRates, DecodeEvery: o.decodeEvery,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}

	o.log.Info("arm start", "arm", armLabel, "subs", o.subs, "payload_bytes", o.payload)
	arm, err := runArm(o, sink, addrs)
	if err != nil {
		return fmt.Errorf("arm %s: %w", armLabel, err)
	}
	rep.Arms = []armResult{arm}

	if o.verifyItems > 0 {
		vr, err := runVerify(o, sink, addrs)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		o.log.Info("verify", "codec", vr.Codec,
			"frames", vr.Frames, "decoded", vr.Decoded, "corrupt", vr.Corrupt)
		rep.Verify = []verifyResult{vr}
	}

	rep.WallSeconds = time.Since(start).Seconds()
	if o.jsonDir != "" {
		if err := os.MkdirAll(o.jsonDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(o.jsonDir, "BENCH_E11.json")
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		o.log.Info("report written", "path", path)
	}
	return nil
}

// subscriberAddrs spreads n subscribers across distinct loopback IPs so
// the hub keeps one connection per subscriber (every 127.x.y.z routes to
// the local host).
func subscriberAddrs(n, port int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.%d.%d:%d", 1+i/250, 1+i%250, port)
	}
	return addrs
}

// armLabel names the one load arm in BENCH_E11.json; artifacts recorded
// while a second, synchronous arm existed carry the same label for this
// path, so baselines stay comparable.
const armLabel = "async"

func runArm(o options, sink *sinkProc, addrs []string) (armResult, error) {
	res := armResult{Label: armLabel}
	tr, err := transport.ListenTCPWith("127.0.0.1:0", func(*wire.Message) {}, transport.TCPOptions{
		QueueLen: o.queue,
		// The periodic re-probe must not fire mid-step: its frames would
		// pollute the delivered-frame accounting. Dial-time probes land in
		// the warm-up window; the sink measures the hub's clock below.
		ClockSyncInterval: time.Hour,
	})
	if err != nil {
		return res, err
	}
	defer tr.Close()

	// Warm-up: one frame to every subscriber establishes all connections
	// before any step is timed.
	warm := buildItem(0, o.payload)
	wf, err := tr.NewFrame(warm)
	if err != nil {
		return res, err
	}
	for _, addr := range addrs {
		if err := tr.SendFrame(addr, wf); err != nil {
			return res, fmt.Errorf("warm-up dial %s: %w", addr, err)
		}
	}
	if err := sink.waitConns(len(addrs), 60*time.Second); err != nil {
		return res, err
	}
	// Clock-offset handshake before anything is timed: the sink probes the
	// hub and corrects every latency sample it takes this arm.
	if off, rtt, err := sink.clockSync(tr.Addr()); err != nil {
		o.log.Warn("clock sync failed; latencies uncorrected", "arm", armLabel, "err", err)
	} else {
		res.ClockOffsetMs = float64(off) / 1e6
		res.ClockRTTMs = float64(rtt) / 1e6
		o.log.Info("clock offset estimated", "arm", armLabel,
			"offset_ms", res.ClockOffsetMs, "rtt_ms", res.ClockRTTMs)
	}

	seq := int64(1)
	var bestFlushMean float64
	for _, rate := range o.pubRates {
		preSnap, err := sink.snap()
		if err != nil {
			return res, err
		}
		preStats := tr.TransportStats()
		preFlushes, preFlushFrames := tr.FlushBatchSizes().Count(), tr.FlushBatchSizes().Sum()

		interval := time.Second / time.Duration(rate)
		stepStart := time.Now()
		next := stepStart
		var published int64
		for time.Since(stepStart) < o.step {
			msg := buildItem(seq, o.payload)
			seq++
			published++
			f, err := tr.NewFrame(msg)
			if err != nil {
				return res, err
			}
			for _, addr := range addrs {
				_ = tr.SendFrame(addr, f)
			}
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				next = time.Now() // behind schedule: don't accumulate debt
			}
		}
		// Let in-flight queues drain before measuring the step.
		time.Sleep(300 * time.Millisecond)
		wall := time.Since(stepStart).Seconds()

		postSnap, err := sink.snap()
		if err != nil {
			return res, err
		}
		postStats := tr.TransportStats()
		st := stepResult{
			TargetItemsPerSec: rate,
			PublishedItems:    published,
			OfferedFrames:     published * int64(len(addrs)),
			DeliveredFrames:   postSnap.Frames - preSnap.Frames,
			P50Ms:             postSnap.P50Ms,
			P99Ms:             postSnap.P99Ms,
			Drops: (postStats.QueueFullDrops + postStats.ConnDrops) -
				(preStats.QueueFullDrops + preStats.ConnDrops),
			Corrupt: postSnap.Corrupt - preSnap.Corrupt,
		}
		st.MsgsPerSec = float64(st.DeliveredFrames) / wall
		st.BytesPerSec = float64(postSnap.Bytes-preSnap.Bytes) / wall
		res.Steps = append(res.Steps, st)
		res.TotalDrops += st.Drops
		res.TotalCorrupt += st.Corrupt
		o.log.Info("step", "rate_items_per_sec", rate,
			"msgs_per_sec", int64(st.MsgsPerSec),
			"mb_per_sec", fmt.Sprintf("%.2f", st.BytesPerSec/1e6),
			"p50_ms", fmt.Sprintf("%.1f", st.P50Ms),
			"p99_ms", fmt.Sprintf("%.1f", st.P99Ms),
			"drops", st.Drops)

		if st.MsgsPerSec > res.SustainedMsgsPerSec {
			res.SustainedMsgsPerSec = st.MsgsPerSec
			res.SustainedBytesPerSec = st.BytesPerSec
			if flushes := tr.FlushBatchSizes().Count() - preFlushes; flushes > 0 {
				bestFlushMean = (tr.FlushBatchSizes().Sum() - preFlushFrames) / float64(flushes)
			}
		}
		// A step is "clean" when the path kept up with the step's target
		// load without dropping. Compare against the target, not against
		// what the publisher managed to offer: under saturation the
		// publisher itself slows down (it shares the machine), which would
		// otherwise make an overloaded step look clean.
		targetOffered := float64(rate) * o.step.Seconds() * float64(len(addrs))
		if st.Drops == 0 && float64(st.DeliveredFrames) >= 0.95*targetOffered {
			res.CleanP50Ms, res.CleanP99Ms = st.P50Ms, st.P99Ms
		}
	}
	res.MeanFramesPerFlush = bestFlushMean
	if res.CleanP50Ms == 0 && res.CleanP99Ms == 0 && len(res.Steps) > 0 {
		res.CleanP50Ms, res.CleanP99Ms = res.Steps[0].P50Ms, res.Steps[0].P99Ms
	}
	if err := tr.Close(); err != nil {
		return res, err
	}
	// Wait for the sink to see every connection go away, so the load arm
	// doesn't bleed into the verification phase.
	return res, sink.waitConns(0, 30*time.Second)
}

// runVerify publishes a moderate full-decode workload to a subset of
// subscribers: every frame is decoded and checksummed, which is where the
// zero-corruption claim is measured.
func runVerify(o options, sink *sinkProc, addrs []string) (verifyResult, error) {
	res := verifyResult{Codec: "binary"}
	if err := sink.mode("full"); err != nil {
		return res, err
	}
	defer sink.mode("sampled")

	if len(addrs) > 64 {
		addrs = addrs[:64]
	}
	tr, err := transport.ListenTCPWith("127.0.0.1:0", func(*wire.Message) {}, transport.TCPOptions{
		QueueLen:          o.queue,
		ClockSyncInterval: time.Hour, // keep re-probes out of the frame counts
	})
	if err != nil {
		return res, err
	}
	defer tr.Close()

	pre, err := sink.snap()
	if err != nil {
		return res, err
	}
	for i := 0; i < o.verifyItems; i++ {
		msg := buildItem(int64(1_000_000+i), o.payload)
		f, err := tr.NewFrame(msg)
		if err != nil {
			return res, err
		}
		for _, addr := range addrs {
			if err := tr.SendFrame(addr, f); err != nil {
				return res, err
			}
		}
		time.Sleep(2 * time.Millisecond) // moderate rate: no queue overflow
	}
	want := int64(o.verifyItems) * int64(len(addrs))
	deadline := time.Now().Add(30 * time.Second)
	var post sinkSnap
	for {
		if post, err = sink.snap(); err != nil {
			return res, err
		}
		if post.Frames-pre.Frames >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	res.Frames = post.Frames - pre.Frames
	res.Decoded = post.Decoded - pre.Decoded
	res.Corrupt = post.Corrupt - pre.Corrupt
	if err := tr.Close(); err != nil {
		return res, err
	}
	return res, sink.waitConns(0, 30*time.Second)
}

// buildItem makes one publishable news item: the payload's first 8 bytes
// are the FNV-64a checksum of the rest, so the sink can detect any frame
// corruption end to end.
func buildItem(seq int64, payload int) *wire.Message {
	body := make([]byte, payload)
	for i := 8; i < len(body); i++ {
		body[i] = byte(int64(i)*31 + seq)
	}
	h := fnv.New64a()
	h.Write(body[8:])
	binary.BigEndian.PutUint64(body[:8], h.Sum64())
	return &wire.Message{Kind: wire.KindMulticast, Multicast: &wire.Multicast{
		TargetZone: "/bench",
		Deliver:    true,
		Envelope: wire.ItemEnvelope{
			Publisher: "loadgen",
			ItemID:    fmt.Sprintf("item-%d", seq),
			Revision:  1,
			Subjects:  []string{"bench"},
			Published: time.Now(),
			Payload:   body,
		},
	}}
}

// --- parent <-> sink protocol ---

type sinkSnap struct {
	Frames  int64   `json:"frames"`
	Bytes   int64   `json:"bytes"`
	Decoded int64   `json:"decoded"`
	Corrupt int64   `json:"corrupt"`
	Conns   int64   `json:"conns"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

type sinkProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Scanner
	port int
}

// startSink re-executes this binary as the subscriber sink and waits for
// its PORT announcement. The NEWSWIRE_LOADGEN_SINK environment marker
// lets the test binary's TestMain dispatch into the sink too.
func startSink(decodeEvery int) (*sinkProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-sink", "-decode-every", strconv.Itoa(decodeEvery))
	cmd.Env = append(os.Environ(), "NEWSWIRE_LOADGEN_SINK=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &sinkProc{cmd: cmd, in: in, out: bufio.NewScanner(outPipe)}
	if !s.out.Scan() {
		s.close()
		return nil, fmt.Errorf("sink exited before announcing its port")
	}
	line := s.out.Text()
	if _, err := fmt.Sscanf(line, "PORT %d", &s.port); err != nil {
		s.close()
		return nil, fmt.Errorf("unexpected sink greeting %q", line)
	}
	return s, nil
}

func (s *sinkProc) snap() (sinkSnap, error) {
	var snap sinkSnap
	if _, err := fmt.Fprintln(s.in, "SNAP"); err != nil {
		return snap, err
	}
	if !s.out.Scan() {
		return snap, fmt.Errorf("sink died mid-run")
	}
	return snap, json.Unmarshal(s.out.Bytes(), &snap)
}

func (s *sinkProc) mode(m string) error {
	if _, err := fmt.Fprintln(s.in, "MODE "+m); err != nil {
		return err
	}
	if !s.out.Scan() || s.out.Text() != "OK" {
		return fmt.Errorf("sink rejected MODE %s", m)
	}
	return nil
}

// clockSync asks the sink to run the clock-offset handshake against the
// hub at addr; it returns the estimated offset (hub minus sink, in
// nanoseconds) and the round trip of the winning probe.
func (s *sinkProc) clockSync(addr string) (offsetNs, rttNs int64, err error) {
	if _, err = fmt.Fprintln(s.in, "CLOCK "+addr); err != nil {
		return 0, 0, err
	}
	if !s.out.Scan() {
		return 0, 0, fmt.Errorf("sink died mid-handshake")
	}
	line := s.out.Text()
	if _, err = fmt.Sscanf(line, "CLOCK %d %d", &offsetNs, &rttNs); err != nil {
		return 0, 0, fmt.Errorf("clock handshake failed: %q", line)
	}
	return offsetNs, rttNs, nil
}

func (s *sinkProc) waitConns(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		snap, err := s.snap()
		if err != nil {
			return err
		}
		if snap.Conns == int64(want) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sink has %d connections, want %d", snap.Conns, want)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (s *sinkProc) close() {
	fmt.Fprintln(s.in, "QUIT")
	s.in.Close()
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// --- sink child process ---

type sinkState struct {
	frames, bytes, decoded, corrupt, conns atomic.Int64
	fullDecode                             atomic.Bool
	decodeEvery                            int64
	lat                                    metrics.Histogram

	// offsetNs (hub clock minus sink clock) is added to every latency
	// sample.
	offsetNs atomic.Int64
}

// measureHubClock measures the hub's clock offset with the transport's
// own estimator: a short-lived endpoint sends the hub one frame, which
// dials it and fires the dial-time clock probe, re-probes every
// clockProbeInterval and keeps the lowest-RTT sample. The endpoint is
// closed before the load is timed, so its probes stay out of the frame
// counts.
func measureHubClock(hub string) (transport.ClockOffset, error) {
	tr, err := transport.ListenTCPWith("127.0.0.1:0", func(*wire.Message) {}, transport.TCPOptions{
		ClockSyncInterval: clockProbeInterval,
	})
	if err != nil {
		return transport.ClockOffset{}, err
	}
	defer tr.Close()
	// The hub ignores the ack; sending it is what opens the connection.
	if err := tr.Send(hub, &wire.Message{Kind: wire.KindMulticastAck, MulticastAck: &wire.MulticastAck{}}); err != nil {
		return transport.ClockOffset{}, err
	}
	// The dial-time probe plus four re-probes; the estimate keeps the
	// fastest round trip among them.
	time.Sleep(5 * clockProbeInterval)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if e, ok := tr.ClockOffset(hub); ok {
			return e, nil
		}
		if time.Now().After(deadline) {
			return transport.ClockOffset{}, fmt.Errorf("no clock offset for %s within deadline", hub)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clockProbeInterval is how often measureHubClock's endpoint re-probes
// the hub.
const clockProbeInterval = 20 * time.Millisecond

func sinkMain(decodeEvery int) error {
	raiseFDLimit()
	if decodeEvery < 1 {
		decodeEvery = 1
	}
	s := &sinkState{decodeEvery: int64(decodeEvery)}
	s.lat.SetReservoir(8192)

	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go s.readConn(c)
		}
	}()

	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "PORT %d\n", ln.Addr().(*net.TCPAddr).Port)
	out.Flush()

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "SNAP":
			snap := sinkSnap{
				Frames:  s.frames.Load(),
				Bytes:   s.bytes.Load(),
				Decoded: s.decoded.Load(),
				Corrupt: s.corrupt.Load(),
				Conns:   s.conns.Load(),
			}
			if s.lat.Count() > 0 {
				snap.P50Ms = s.lat.Quantile(0.50) * 1000
				snap.P99Ms = s.lat.Quantile(0.99) * 1000
			}
			s.lat.Reset() // percentiles are per snapshot interval
			b, err := json.Marshal(&snap)
			if err != nil {
				return err
			}
			out.Write(b)
			out.WriteByte('\n')
			out.Flush()
		case line == "MODE full" || line == "MODE sampled":
			s.fullDecode.Store(line == "MODE full")
			fmt.Fprintln(out, "OK")
			out.Flush()
		case strings.HasPrefix(line, "CLOCK "):
			e, err := measureHubClock(strings.TrimPrefix(line, "CLOCK "))
			if err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else {
				s.offsetNs.Store(int64(e.Offset))
				fmt.Fprintf(out, "CLOCK %d %d\n", int64(e.Offset), int64(e.RTT))
			}
			out.Flush()
		case line == "QUIT":
			return nil
		}
	}
	return sc.Err()
}

func (s *sinkState) readConn(c net.Conn) {
	s.conns.Add(1)
	defer s.conns.Add(-1)
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [wire.FramePrefixLen]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size == 0 || size > maxFrame {
			s.corrupt.Add(1)
			return
		}
		if cap(buf) < int(size) {
			buf = make([]byte, size)
		}
		b := buf[:size]
		if _, err := io.ReadFull(br, b); err != nil {
			return
		}
		// The hub's dial-time clock probes ride the same sockets; keep
		// them out of the delivery accounting.
		if k, ok := wire.SniffKind(b); ok && k == wire.KindClockPing {
			continue
		}
		n := s.frames.Add(1)
		s.bytes.Add(int64(size) + wire.FramePrefixLen)
		if s.fullDecode.Load() || n%s.decodeEvery == 0 {
			s.verify(b)
		}
	}
}

// verify fully decodes one frame: codec round-trip, payload checksum,
// and delivery latency from the publisher's timestamp, corrected by the
// handshake-estimated clock offset (near zero on one host; the mechanism
// is what matters for skewed deployments).
func (s *sinkState) verify(b []byte) {
	msg, err := wire.Decode(b)
	if err != nil {
		s.corrupt.Add(1)
		return
	}
	if msg.Kind != wire.KindMulticast || msg.Multicast == nil {
		s.corrupt.Add(1)
		return
	}
	env := &msg.Multicast.Envelope
	if len(env.Payload) < 16 {
		s.corrupt.Add(1)
		return
	}
	h := fnv.New64a()
	h.Write(env.Payload[8:])
	if binary.BigEndian.Uint64(env.Payload[:8]) != h.Sum64() {
		s.corrupt.Add(1)
		return
	}
	s.decoded.Add(1)
	if !env.Published.IsZero() {
		// Published is the hub's clock; adding the measured hub-minus-sink
		// offset moves the sample onto the hub's timeline.
		s.lat.Observe(time.Since(env.Published).Seconds() + float64(s.offsetNs.Load())/1e9)
	}
}
