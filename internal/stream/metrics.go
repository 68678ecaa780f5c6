package stream

import (
	"time"

	"airindex/internal/obs"
)

// Metrics is the server side of the observability layer: every counter the
// broadcast hot path touches, pre-resolved to direct pointers so recording
// is one atomic add — no map lookups, no locks, no allocation (the
// zero-allocation contract is pinned by TestTransmitHotPathZeroAlloc and
// BenchmarkTransmitHotPath).
type Metrics struct {
	reg *obs.Registry

	FramesWritten   *obs.Counter // frames put on the wire (all connections)
	FramesDropped   *obs.Counter // frames the fault channel discarded
	FramesCorrupted *obs.Counter // frames delivered with flipped payload bits
	BytesWritten    *obs.Counter // wire bytes written (headers + payloads)

	ConnsActive *obs.Gauge   // currently streaming connections
	ConnsTotal  *obs.Counter // connections ever accepted
	Evictions   *obs.Counter // slow clients evicted by WriteTimeout
	ConnPanics  *obs.Counter // connection goroutine panics recovered

	Swaps         *obs.Counter   // program generations published to the air
	SwapLatencyNS *obs.Histogram // end-to-end reconfiguration latency (Swapper.Apply), ns
	CutBuildNS    *obs.Histogram // off-path program compile per generation cut, ns
	// CutDirtyPermille is the rebuilt-node fraction of the last cut's D-tree
	// in permille: near 0 when the incremental path spliced almost
	// everything, 1000 for a full rebuild.
	CutDirtyPermille *obs.Gauge
}

// NewMetrics builds a server metrics set backed by a fresh registry.
func NewMetrics() *Metrics { return NewMetricsIn(obs.NewRegistry(), "") }

// NewMetricsIn registers a server metric set in an existing registry under
// a name prefix, so a multi-channel fabric can share one registry across
// its per-shard servers with per-shard labels ("shard0_frames_written",
// ...). The prefix must be unique within the registry.
func NewMetricsIn(reg *obs.Registry, prefix string) *Metrics {
	return &Metrics{
		reg:              reg,
		FramesWritten:    reg.Counter(prefix + "frames_written"),
		FramesDropped:    reg.Counter(prefix + "frames_dropped"),
		FramesCorrupted:  reg.Counter(prefix + "frames_corrupted"),
		BytesWritten:     reg.Counter(prefix + "bytes_written"),
		ConnsActive:      reg.Gauge(prefix + "conns_active"),
		ConnsTotal:       reg.Counter(prefix + "conns_total"),
		Evictions:        reg.Counter(prefix + "evictions"),
		ConnPanics:       reg.Counter(prefix + "conn_panics"),
		Swaps:            reg.Counter(prefix + "swaps"),
		SwapLatencyNS:    reg.Histogram(prefix+"swap_latency_ns", 256),
		CutBuildNS:       reg.Histogram(prefix+"cut_build_ns", 256),
		CutDirtyPermille: reg.Gauge(prefix + "cut_dirty_permille"),
	}
}

// Snapshot reads every server metric into a JSON-friendly map.
func (m *Metrics) Snapshot() map[string]any { return m.reg.Snapshot() }

// ClientMetrics is the client side of the observability layer: the
// latency and tuning distributions the paper's evaluation is built on,
// recorded per completed query, plus the loss/corruption/reconfiguration
// recovery counters. One ClientMetrics may be shared by any number of
// clients (all operations are atomic).
type ClientMetrics struct {
	reg *obs.Registry

	Queries     *obs.Counter // queries answered
	QueryErrors *obs.Counter // queries that failed terminally

	LatencySlots  *obs.Histogram // access latency per query, slots
	TuningPackets *obs.Histogram // total tuning per query, packets

	EpochRestarts *obs.Counter // whole-query restarts forced by hot swaps
	Recoveries    *obs.Counter // loss/corruption/swap recovery actions
	LostSlots     *obs.Counter // slot gaps observed (frames dropped on air)
	CorruptFrames *obs.Counter // downloaded frames failing the checksum
}

// NewClientMetrics builds a client metrics set backed by a fresh registry.
func NewClientMetrics() *ClientMetrics {
	reg := obs.NewRegistry()
	return &ClientMetrics{
		reg:           reg,
		Queries:       reg.Counter("queries"),
		QueryErrors:   reg.Counter("query_errors"),
		LatencySlots:  reg.Histogram("latency_slots", 1024),
		TuningPackets: reg.Histogram("tuning_packets", 1024),
		EpochRestarts: reg.Counter("epoch_restarts"),
		Recoveries:    reg.Counter("recoveries"),
		LostSlots:     reg.Counter("lost_slots"),
		CorruptFrames: reg.Counter("corrupt_frames"),
	}
}

// Snapshot reads every client metric into a JSON-friendly map.
func (m *ClientMetrics) Snapshot() map[string]any { return m.reg.Snapshot() }

// Observe folds one completed query result into the metrics — for callers
// that drive the access protocol by hand (Probe/Fetch/Locate, like the
// fabric's adjacency leg) instead of through Query, which records
// automatically.
func (m *ClientMetrics) Observe(res *Result) { m.observe(res) }

// observe folds one completed query result into the metrics; no-op on a
// nil receiver so untracked clients pay only a nil check.
func (m *ClientMetrics) observe(res *Result) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	m.LatencySlots.Observe(int64(res.Latency))
	m.TuningPackets.Observe(int64(res.TotalTuning()))
	m.EpochRestarts.Add(int64(res.EpochRestarts))
	m.Recoveries.Add(int64(res.Recoveries))
	m.LostSlots.Add(int64(res.LostSlots))
	m.CorruptFrames.Add(int64(res.CorruptFrames))
}

// Health is the liveness view /healthz serves: where the shared broadcast
// clock stands in the cycle, what generation is on the air, and how many
// receivers are tuned in.
type Health struct {
	Generation    uint32  `json:"generation"`
	CycleLen      int     `json:"cycle_len"`
	CurrentSlot   int     `json:"current_slot"`
	CycleProgress float64 `json:"cycle_progress"` // position in cycle, [0, 1)
	ConnsActive   int64   `json:"conns_active"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Closed        bool    `json:"closed"`
}

// Health reports the server's current liveness view.
func (s *Server) Health() Health {
	lp := s.cur.Load()
	cycle := lp.prog.Sched.CycleLen()
	slot := s.currentSlot()
	return Health{
		Generation:    lp.gen,
		CycleLen:      cycle,
		CurrentSlot:   slot,
		CycleProgress: float64(slot%cycle) / float64(cycle),
		ConnsActive:   s.metrics.ConnsActive.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Closed:        s.closed.Load(),
	}
}
