package stream

import (
	"errors"
	"fmt"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/obs"
)

// Continuous is the moving-client session: a standing window/kNN query
// re-evaluated once per broadcast cycle as the client's position advances.
// The broadcast must carry the region-adjacency appendix (a program compiled
// from an arena with SetAdjacency).
//
// In incremental mode the session caches its containing region, the decoded
// adjacency table, and the answer set's data buckets across cycles. Each
// wake costs one probe; the cached state is then validated cheaply — did the
// generation change? did the position cross a region boundary (an exact
// Voronoi membership test against the cached table)? Only a generation
// change re-acquires the appendix, only a boundary crossing re-descends the
// index, and only newly entered answer regions download their buckets.
// Fresh mode is the honest baseline: every cycle re-acquires everything as
// if the client had just tuned in.
//
// Answers are exact either way: for a pinned generation the broadcast table
// fully determines the window/kNN result at any position, so recomputing
// locally from cache equals re-reading the air. Tuning and latency are
// charged per cycle from the frames actually parsed, exactly like one-shot
// queries.
type Continuous struct {
	c    *Client
	mode ContinuousMode
	q    ContinuousQuery

	// Metrics, when set, accumulates the revalidation-vs-redescent counters
	// and per-cycle cost distributions. Optional; may be shared.
	Metrics *ContinuousMetrics

	cycle    int
	genValid bool
	gen      uint32
	adj      *core.Adjacency
	adjPkts  int
	region   int
	buckets  map[int][]byte
}

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

// CycleOutcome is one cycle's answer with its cost accounting.
type CycleOutcome struct {
	Cycle      int
	Generation uint32

	Region int32   // global id of the containing region
	Window []int32 // global ids of regions meeting the window, ascending
	KNN    []int32 // global ids by (site distance², id)

	// Exactly one of the three is set: the cycle was answered from cache
	// after a successful validation, re-descended the index after a boundary
	// crossing, or re-acquired everything after a generation change (always
	// set in fresh mode).
	Revalidated bool
	Crossed     bool
	Refreshed   bool

	Res Result // per-cycle tuning/latency/recovery accounting
}

// NewContinuous starts a continuous session over a streamed client. The
// client's connection is owned by the caller.
func NewContinuous(c *Client, mode ContinuousMode, q ContinuousQuery) *Continuous {
	return &Continuous{c: c, mode: mode, q: q, region: -1, buckets: make(map[int][]byte)}
}

// Buckets exposes the session's cached answer data, keyed by local region
// id (read-only view; entries are the verified bucket payloads).
func (s *Continuous) Buckets() map[int][]byte { return s.buckets }

// invalidate drops every piece of cached state pinned to a dead generation.
func (s *Continuous) invalidate() {
	s.genValid = false
	s.adj = nil
	s.adjPkts = 0
	s.region = -1
	clear(s.buckets)
}

// Step advances the session one broadcast cycle at position p. Mid-cycle
// generation swaps restart the cycle against the new program (bounded, and
// charged to the same outcome) exactly like one-shot queries.
func (s *Continuous) Step(p geom.Point) (CycleOutcome, error) {
	var res Result
	var out CycleOutcome
	for restart := 0; ; restart++ {
		out = CycleOutcome{Cycle: s.cycle}
		err := s.stepOnce(p, &out, &res)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrStaleGeneration) {
			if s.Metrics != nil {
				s.Metrics.CycleErrors.Inc()
			}
			return out, err
		}
		// The program swapped mid-cycle: every cached pointer is stale.
		s.invalidate()
		res.EpochRestarts++
		res.Recoveries++
		res.TuneRecover++
		res.Data = res.Data[:0]
		if restart+1 >= maxEpochRestarts {
			err := fmt.Errorf("stream: continuous cycle abandoned after %d epoch restarts", maxEpochRestarts)
			if s.Metrics != nil {
				s.Metrics.CycleErrors.Inc()
			}
			return out, err
		}
	}
	res.Latency = float64(res.LastSlot + 1 - res.FirstSlot)
	out.Res = res
	out.Generation = res.Generation
	s.cycle++
	if m := s.Metrics; m != nil {
		m.Cycles.Inc()
		switch {
		case out.Revalidated:
			m.RevalidationHits.Inc()
		case out.Crossed:
			m.BoundaryRedescents.Inc()
		case out.Refreshed:
			m.FullRefreshes.Inc()
		}
		m.EpochRestarts.Add(int64(res.EpochRestarts))
		m.LatencySlots.Observe(int64(res.Latency))
		m.TuningPackets.Observe(int64(res.TotalTuning()))
	}
	return out, nil
}

// stepOnce runs one cycle against a single pinned generation.
func (s *Continuous) stepOnce(p geom.Point, out *CycleOutcome, res *Result) error {
	if err := s.c.Probe(res); err != nil {
		return err
	}
	if s.mode == ModeFresh || !s.genValid || res.Generation != s.gen {
		return s.acquire(p, out, res)
	}
	if s.adj.Contains(s.region, p) {
		out.Revalidated = true
	} else {
		// Crossed a region boundary: the index descent re-runs over the
		// live stream, but the appendix and untouched buckets stay cached.
		bucket, err := s.c.LocateShifted(p, s.adjPkts, res)
		if err != nil {
			return err
		}
		s.region = bucket
		out.Crossed = true
	}
	return s.answer(p, out, res)
}

// acquire performs the full tune-in: download the self-describing appendix,
// descend the index for p, then resolve the standing query.
func (s *Continuous) acquire(p geom.Point, out *CycleOutcome, res *Result) error {
	s.invalidate()
	head, err := s.c.FetchIndexPackets(res, 0, 1)
	if err != nil {
		return err
	}
	count, err := core.AdjacencyPacketCount(head[0])
	if err != nil {
		return fmt.Errorf("stream: broadcast carries no adjacency appendix: %w", err)
	}
	rest, err := s.c.FetchIndexPackets(res, 1, count)
	if err != nil {
		return err
	}
	adj, err := core.DecodeAdjacency(append(head, rest...))
	if err != nil {
		return err
	}
	bucket, err := s.c.LocateShifted(p, count, res)
	if err != nil {
		return err
	}
	s.adj, s.adjPkts = adj, count
	s.region = bucket
	s.gen, s.genValid = res.Generation, true
	out.Refreshed = true
	return s.answer(p, out, res)
}

// answer resolves the standing query at p from the cached table — radio-
// free — then downloads the buckets of answer regions not already held and
// drops the ones that left the answer set.
func (s *Continuous) answer(p geom.Point, out *CycleOutcome, res *Result) error {
	needed := map[int]bool{s.region: true}
	var window, knn []int32
	if s.q.WindowW > 0 || s.q.WindowH > 0 {
		window = s.adj.Window(s.region, s.q.Window(p))
		for _, id := range window {
			needed[int(id)] = true
		}
	}
	if s.q.K > 0 {
		knn = s.adj.KNN(s.region, p, s.q.K)
		for _, id := range knn {
			needed[int(id)] = true
		}
	}
	// Download missing answer buckets in broadcast order (ascending bucket
	// id matches the cycle's data layout, so one pass over the air usually
	// suffices).
	order := make([]int, 0, len(needed))
	for id := range needed {
		if _, ok := s.buckets[id]; !ok {
			order = append(order, id)
		}
	}
	insertionSortInts(order)
	for _, id := range order {
		data, err := s.c.FetchBucket(id, res)
		if err != nil {
			return err
		}
		s.buckets[id] = data
	}
	for id := range s.buckets {
		if !needed[id] {
			delete(s.buckets, id)
		}
	}
	out.Region = s.adj.GlobalID(s.region)
	out.Window = s.toGlobal(window)
	out.KNN = s.toGlobal(knn)
	return nil
}

// toGlobal maps local region indices to global ids, preserving order (the
// mapping is monotone on a single channel, where it is the identity).
func (s *Continuous) toGlobal(local []int32) []int32 {
	if local == nil {
		return nil
	}
	out := make([]int32, len(local))
	for i, id := range local {
		out[i] = s.adj.GlobalID(int(id))
	}
	return out
}

// insertionSortInts keeps tiny id lists ordered without pulling in sort for
// the hot path.
func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
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

// Registry exposes the underlying registry (for /metrics and snapshots).
func (m *ContinuousMetrics) Registry() *obs.Registry { return m.reg }

// Snapshot reads every metric into a JSON-friendly map.
func (m *ContinuousMetrics) Snapshot() map[string]any { return m.reg.Snapshot() }
