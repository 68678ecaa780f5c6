package stream

import (
	"airindex/internal/geom"
	"airindex/internal/obs"
)

// The continuous-query vocabulary: a moving client's standing window/kNN
// query, re-evaluated once per broadcast cycle as its position advances,
// over a broadcast whose index copies carry the region-adjacency appendix
// (a program compiled from an arena with SetAdjacency). The session itself
// is fabric.Continuous, which serves a single channel as its one-channel
// case; these types are what it and its callers share.

// ContinuousMode selects how the session treats its cross-cycle cache.
type ContinuousMode int

const (
	// ModeIncremental revalidates cached state and re-acquires only what a
	// generation change or boundary crossing invalidated.
	ModeIncremental ContinuousMode = iota
	// ModeFresh re-acquires appendix, descent and every answer bucket each
	// cycle — the baseline incremental revalidation is measured against.
	ModeFresh
)

// ContinuousQuery is the standing query shape, centered on the client.
type ContinuousQuery struct {
	// WindowW/WindowH give the standing window's full extent; the window is
	// re-centered on the client each cycle. Zero disables the window query.
	WindowW, WindowH float64
	// K asks for the k regions with the nearest sites. Zero disables.
	K int
}

// Window returns the query window centered at p (zero rect when disabled).
func (q ContinuousQuery) Window(p geom.Point) geom.Rect {
	return geom.Rect{
		MinX: p.X - q.WindowW/2, MinY: p.Y - q.WindowH/2,
		MaxX: p.X + q.WindowW/2, MaxY: p.Y + q.WindowH/2,
	}
}

// ContinuousMetrics counts how a continuous session pays for its answers:
// cycles resolved by cheap revalidation versus index re-descents versus full
// re-acquisitions, plus the per-cycle cost distributions.
type ContinuousMetrics struct {
	reg *obs.Registry

	Cycles             *obs.Counter // cycles completed
	RevalidationHits   *obs.Counter // answered from cache, no re-descent
	BoundaryRedescents *obs.Counter // index re-descents after a crossing
	FullRefreshes      *obs.Counter // full re-acquisitions (new generation or fresh mode)
	EpochRestarts      *obs.Counter // mid-cycle swaps recovered from
	CycleErrors        *obs.Counter // cycles that failed terminally

	LatencySlots  *obs.Histogram // per-cycle latency, slots
	TuningPackets *obs.Histogram // per-cycle tuning, packets
}

// NewContinuousMetrics builds a metric set backed by a fresh registry.
func NewContinuousMetrics() *ContinuousMetrics {
	return NewContinuousMetricsIn(obs.NewRegistry(), "")
}

// NewContinuousMetricsIn registers the set in an existing registry under a
// name prefix (unique within the registry).
func NewContinuousMetricsIn(reg *obs.Registry, prefix string) *ContinuousMetrics {
	return &ContinuousMetrics{
		reg:                reg,
		Cycles:             reg.Counter(prefix + "cont_cycles"),
		RevalidationHits:   reg.Counter(prefix + "cont_revalidation_hits"),
		BoundaryRedescents: reg.Counter(prefix + "cont_boundary_redescents"),
		FullRefreshes:      reg.Counter(prefix + "cont_full_refreshes"),
		EpochRestarts:      reg.Counter(prefix + "cont_epoch_restarts"),
		CycleErrors:        reg.Counter(prefix + "cont_cycle_errors"),
		LatencySlots:       reg.Histogram(prefix+"cont_latency_slots", 1024),
		TuningPackets:      reg.Histogram(prefix+"cont_tuning_packets", 1024),
	}
}

// Snapshot reads every metric into a JSON-friendly map.
func (m *ContinuousMetrics) Snapshot() map[string]any { return m.reg.Snapshot() }
