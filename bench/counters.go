package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"newswire"
	"newswire/internal/astrolabe"
	"newswire/internal/cache"
	"newswire/internal/multicast"
	"newswire/internal/pubsub"
	"newswire/internal/transport"
)

// counters is one reading of the layers' public Stats() structs, summed
// over the nodes, plus the process's own CPU and allocation totals. Phases
// are measured as the difference of two readings.
type counters struct {
	at        time.Time
	transport transport.Stats // QueueHighWater is the maximum over nodes, not a sum
	multicast multicast.Stats
	cache     cache.Stats
	gossip    astrolabe.Stats
	routing   pubsub.CounterSnapshot

	cpu        time.Duration // user + system time of the process
	gcCPU      float64       // seconds of CPU the collector used
	allocBytes uint64
	mallocs    uint64
	heapAlloc  uint64
}

func readCounters(nodes []*newswire.Node) counters {
	c := counters{at: time.Now()}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if ts, ok := n.TransportStats(); ok {
			c.transport.FramesSent += ts.FramesSent
			c.transport.BytesSent += ts.BytesSent
			c.transport.FramesReceived += ts.FramesReceived
			c.transport.BytesReceived += ts.BytesReceived
			c.transport.QueueFullDrops += ts.QueueFullDrops
			c.transport.ConnDrops += ts.ConnDrops
			c.transport.FlushBatches += ts.FlushBatches
			if ts.QueueHighWater > c.transport.QueueHighWater {
				c.transport.QueueHighWater = ts.QueueHighWater
			}
		}
		ms := n.Router().Stats()
		c.multicast.Published += ms.Published
		c.multicast.Forwarded += ms.Forwarded
		c.multicast.Delivered += ms.Delivered
		c.multicast.Duplicates += ms.Duplicates
		c.multicast.FilteredOut += ms.FilteredOut
		c.multicast.RetriesSent += ms.RetriesSent
		c.multicast.DeliveryFailures += ms.DeliveryFailures
		cs := n.Cache().Stats()
		c.cache.Puts += cs.Puts
		c.cache.Duplicates += cs.Duplicates
		c.cache.Evicted += cs.Evicted
		gs := n.Agent().Stats()
		c.gossip.GossipsSent += gs.GossipsSent
		c.gossip.GossipBytesSent += gs.GossipBytesSent
		c.gossip.RowsMerged += gs.RowsMerged
		c.gossip.AggEvals += gs.AggEvals
		rs := n.RoutingStats()
		c.routing.Forwards += rs.Forwards
		c.routing.FalsePositiveDrops += rs.FalsePositiveDrops
		c.routing.ExactMatches += rs.ExactMatches
	}
	c.readProc()
	return c
}

func (c *counters) readProc() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes = ms.TotalAlloc
	c.mallocs = ms.Mallocs
	c.heapAlloc = ms.HeapAlloc
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = sample[0].Value.Float64()
	}
}

func liveNodesOf(c *liveCluster) []*newswire.Node {
	out := make([]*newswire.Node, len(c.nodes))
	for i, ln := range c.nodes {
		out[i] = ln.Node()
	}
	return out
}
