package ingest

import "airindex/internal/obs"

// Metrics is the pipeline's observability set, registered alongside the
// server's metrics so /metrics shows admission, coalescing, cut and
// degradation behavior in one document.
type Metrics struct {
	reg *obs.Registry

	QueueDepth  *obs.Gauge   // operations currently queued
	EnqueuedOps *obs.Counter // operations admitted
	ShedOps     *obs.Counter // operations rejected at admission (ErrQueueFull)
	DroppedMove *obs.Counter // queued moves shed by the DropOldestMove policy

	CoalescedIn  *obs.Counter // operations entering the coalescer
	CoalescedOut *obs.Counter // operations surviving it (folded batches are smaller)

	Cuts        *obs.Counter   // generation cuts applied
	CutOps      *obs.Histogram // coalesced operations per cut
	OpLatencyNS *obs.Histogram // enqueue -> on-air latency per published op, ns

	Retries     *obs.Counter // cut retries after a transient build/publish failure
	CutTimeouts *obs.Counter // cuts that exceeded the stage timeout (logged, still awaited)
	RejectedOps *obs.Counter // operations dropped after the swapper refused them
	InvalidOps  *obs.Counter // operations dropped before apply (dangling handle, dead site)

	QuarantinedBatches *obs.Counter // batches abandoned after a panicking cut
	QuarantinedOps     *obs.Counter // operations inside quarantined batches
}

// NewMetrics builds a pipeline metrics set backed by a fresh registry.
func NewMetrics() *Metrics { return NewMetricsIn(obs.NewRegistry(), "ingest_") }

// NewMetricsIn registers the pipeline metric set in an existing registry
// under a name prefix (conventionally "ingest_"), so a daemon can serve
// ingest and broadcast metrics from one /metrics document.
func NewMetricsIn(reg *obs.Registry, prefix string) *Metrics {
	m := &Metrics{
		reg:                reg,
		QueueDepth:         reg.Gauge(prefix + "queue_depth"),
		EnqueuedOps:        reg.Counter(prefix + "enqueued_ops"),
		ShedOps:            reg.Counter(prefix + "shed_ops"),
		DroppedMove:        reg.Counter(prefix + "dropped_moves"),
		CoalescedIn:        reg.Counter(prefix + "coalesced_in_ops"),
		CoalescedOut:       reg.Counter(prefix + "coalesced_out_ops"),
		Cuts:               reg.Counter(prefix + "cuts"),
		CutOps:             reg.Histogram(prefix+"cut_ops", 256),
		OpLatencyNS:        reg.Histogram(prefix+"op_latency_ns", 1024),
		Retries:            reg.Counter(prefix + "retries"),
		CutTimeouts:        reg.Counter(prefix + "cut_timeouts"),
		RejectedOps:        reg.Counter(prefix + "rejected_ops"),
		InvalidOps:         reg.Counter(prefix + "invalid_ops"),
		QuarantinedBatches: reg.Counter(prefix + "quarantined_batches"),
		QuarantinedOps:     reg.Counter(prefix + "quarantined_ops"),
	}
	// The coalesce ratio in/out — how many raw operations one applied
	// operation stands for (1.0 = no folding; derived, so it needs no
	// locking on the hot path).
	reg.Register(prefix+"coalesce_ratio", obs.Func(func() any {
		out := m.CoalescedOut.Load()
		if out == 0 {
			return 1.0
		}
		return float64(m.CoalescedIn.Load()) / float64(out)
	}))
	return m
}

// Snapshot reads every pipeline metric into a JSON-friendly map.
func (m *Metrics) Snapshot() map[string]any { return m.reg.Snapshot() }
