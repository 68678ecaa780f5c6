package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/ingest"
	"airindex/internal/stream"
)

// This file hosts the asynchronous-ingest extension experiment: the churn
// sweep's successor where site operations no longer arrive as synchronous
// Apply batches but stream through the bounded ingest pipeline — admission
// queue, per-site coalescing, paced generation cuts — while clients query
// the live broadcast. It answers the operational questions the synchronous
// sweep cannot: how many operations per second the pipeline sustains, how
// much coalescing compresses them, how long an operation takes to reach
// the air, and what the queries cost while it happens.

// IngestPoint is one cell of the sweep: one offered load (site operations
// streamed through the pipeline while the cell's queries run).
type IngestPoint struct {
	Dataset string
	Offered int // operations submitted by the producers
	Queries int

	Admitted int64 // operations past admission
	Shed     int64 // operations rejected with ErrQueueFull
	Cuts     int64 // generations published by the pipeline
	Applied  int64 // operations surviving coalescing (applied to the index)

	CoalesceRatio float64 // offered-to-applied fold factor (>= 1)
	OpsPerSec     float64 // admitted ops per wall-clock second, enqueue to on-air drain

	OpLatencyP50Ms float64 // admission -> on-air latency per applied op
	OpLatencyP99Ms float64

	AvgLatency       float64 // query slots, probe to final frame
	AvgTuning        float64 // active-radio packets per query
	AvgEpochRestarts float64 // swap-forced whole-query restarts per query

	// Obs holds the full observability snapshots, keyed "server", "client"
	// and "ingest" (JSON output only).
	Obs map[string]any `json:",omitempty"`
}

// IngestLevels returns the sweep's default offered loads (operations per
// cell; 0 = static baseline).
func IngestLevels() []int { return []int{0, 256, 1024, 4096} }

// ingestProducer streams ops ops into the pipeline, addressing only the
// handles it created itself, so any number of producers compose without
// coordination. The mix is move-heavy (the paper's mobile-sites regime):
// it grows a private population first, then mostly moves it, occasionally
// replacing a member.
func ingestProducer(p *ingest.Pipeline, idx, ops int, seed int64, shed *int64, mu *sync.Mutex) {
	rng := rand.New(rand.NewSource(seed))
	base := -int64(idx)*1_000_000 - 1
	var handles []int64
	next := base
	randomPt := func() (float64, float64) {
		return dataset.Area.MinX + rng.Float64()*dataset.Area.W(),
			dataset.Area.MinY + rng.Float64()*dataset.Area.H()
	}
	localShed := int64(0)
	for i := 0; i < ops; i++ {
		x, y := randomPt()
		var op ingest.Op
		kind, j := 0, 0 // 0 add, 1 remove, 2 move
		switch k := rng.Intn(10); {
		case len(handles) < 4 || k == 0:
			op = ingest.Op{Kind: ingest.OpAdd, ID: next, X: x, Y: y}
		case k == 1:
			kind, j = 1, rng.Intn(len(handles))
			op = ingest.Op{Kind: ingest.OpRemove, ID: handles[j]}
		default:
			kind = 2
			op = ingest.Op{Kind: ingest.OpMove, ID: handles[rng.Intn(len(handles))], X: x, Y: y}
		}
		if err := p.Enqueue(op); err != nil {
			// ErrQueueFull sheds the op whole; the producer's view only
			// changes on admission, so later ops stay self-consistent.
			localShed++
			continue
		}
		switch kind {
		case 0:
			handles = append(handles, next)
			next--
		case 1:
			handles = append(handles[:j], handles[j+1:]...)
		}
	}
	mu.Lock()
	*shed += localShed
	mu.Unlock()
}

// RunIngest sweeps offered update load streamed through the asynchronous
// pipeline against live verified queries. Every query must resolve to the
// region correct for the generation it completed under — overload may shed
// operations or delay their on-air time, never corrupt an answer.
func RunIngest(ds dataset.Dataset, capacity int, levels []int, queries int, seed int64) ([]IngestPoint, error) {
	if queries <= 0 {
		queries = 100
	}
	var out []IngestPoint
	for _, offered := range levels {
		pt, err := runIngestCell(ds, capacity, offered, queries, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: ingest load %d: %w", offered, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

func runIngestCell(ds dataset.Dataset, capacity, offered, queries int, seed int64) (IngestPoint, error) {
	sw, srv, err := serveSingleChannel(ds, capacity, fabric.Options{})
	if err != nil {
		return IngestPoint{}, err
	}
	defer srv.Close()

	pipe := ingest.Start(ingest.FabricSink(sw), ingest.Config{
		QueueCap:    1024,
		Policy:      ingest.Reject,
		CutMaxOps:   64,
		CutInterval: 20 * time.Millisecond,
	})

	client, err := stream.Dial(srv.Addr().String(), capacity)
	if err != nil {
		pipe.Close(nil)
		return IngestPoint{}, err
	}
	defer client.Close()
	cm := stream.NewClientMetrics()
	client.Metrics = cm

	// Producers stream the offered load concurrently with the measured
	// queries; four of them contend on admission like independent clients.
	const producers = 4
	start := time.Now()
	var wg sync.WaitGroup
	var shedLocal int64
	var shedMu sync.Mutex
	for i := 0; i < producers; i++ {
		n := offered / producers
		if i == producers-1 {
			n = offered - n*(producers-1)
		}
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			ingestProducer(pipe, i+1, n, seed+int64(i)*97+int64(offered), &shedLocal, &shedMu)
		}(i, n)
	}

	rng := rand.New(rand.NewSource(seed + int64(offered)*131))
	pt := IngestPoint{Dataset: ds.Name, Offered: offered, Queries: queries}
	for q := 0; q < queries; q++ {
		p := geom.Pt(
			dataset.Area.MinX+rng.Float64()*dataset.Area.W(),
			dataset.Area.MinY+rng.Float64()*dataset.Area.H(),
		)
		res, err := client.Query(p)
		if err != nil {
			pipe.Close(nil)
			return pt, fmt.Errorf("query %d at %v: %w", q, p, err)
		}
		if err := checkAnswer(sw, p, res, capacity); err != nil {
			pipe.Close(nil)
			return pt, fmt.Errorf("query %d: %w", q, err)
		}
		pt.AvgLatency += res.Latency
		pt.AvgTuning += float64(res.TotalTuning())
		pt.AvgEpochRestarts += float64(res.EpochRestarts)
	}

	// Wait for the offered load to finish, then drain every admitted op
	// through final cuts before reading the clocks.
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := pipe.Close(ctx); err != nil {
		return pt, fmt.Errorf("ingest drain: %w", err)
	}
	elapsed := time.Since(start)

	im := pipe.Metrics()
	pt.Admitted = im.EnqueuedOps.Load()
	pt.Shed = im.ShedOps.Load()
	pt.Cuts = im.Cuts.Load()
	pt.Applied = im.CoalescedOut.Load()
	if pt.Applied > 0 {
		pt.CoalesceRatio = float64(im.CoalescedIn.Load()) / float64(pt.Applied)
	} else {
		pt.CoalesceRatio = 1
	}
	if s := elapsed.Seconds(); s > 0 {
		pt.OpsPerSec = float64(pt.Admitted) / s
	}
	lat := im.OpLatencyNS.Snapshot()
	const ms = 1e6
	pt.OpLatencyP50Ms = float64(lat.P50) / ms
	pt.OpLatencyP99Ms = float64(lat.P99) / ms
	qf := float64(queries)
	pt.AvgLatency /= qf
	pt.AvgTuning /= qf
	pt.AvgEpochRestarts /= qf
	sm := srv.Metrics()
	pt.Obs = map[string]any{"server": sm.Snapshot(), "client": cm.Snapshot(), "ingest": im.Snapshot()}

	if got := shedLocal; got != pt.Shed {
		return pt, fmt.Errorf("shed accounting diverged: producers saw %d rejections, pipeline counted %d", got, pt.Shed)
	}

	client.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		return pt, fmt.Errorf("shutdown after ingest cell: %w", err)
	}
	return pt, nil
}

// IngestTables renders the sweep: sustained throughput, folding, and
// op-to-air latency against the query-side cost.
func IngestTables(ps []IngestPoint) string {
	if len(ps) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — asynchronous ingest vs offered update load (ops per %d queries)\n",
		ps[0].Dataset, ps[0].Queries)
	fmt.Fprintf(&b, "%-10s %10s %8s %8s %8s %10s %10s\n",
		"offered", "admitted", "shed", "cuts", "applied", "fold", "ops/sec")
	for _, p := range ps {
		fmt.Fprintf(&b, "%-10d %10d %8d %8d %8d %10.2f %10.0f\n",
			p.Offered, p.Admitted, p.Shed, p.Cuts, p.Applied, p.CoalesceRatio, p.OpsPerSec)
	}
	b.WriteString("\nop-to-on-air latency (ms) and query cost under load\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %14s %14s %16s\n",
		"offered", "op p50", "op p99", "avg latency", "avg tuning", "epoch restarts")
	for _, p := range ps {
		if p.Applied == 0 {
			fmt.Fprintf(&b, "%-10d %10s %10s %14.3f %14.3f %16.4f\n",
				p.Offered, "-", "-", p.AvgLatency, p.AvgTuning, p.AvgEpochRestarts)
			continue
		}
		fmt.Fprintf(&b, "%-10d %10.2f %10.2f %14.3f %14.3f %16.4f\n",
			p.Offered, p.OpLatencyP50Ms, p.OpLatencyP99Ms, p.AvgLatency, p.AvgTuning, p.AvgEpochRestarts)
	}
	return b.String()
}

// IngestCSV renders the sweep as comma-separated rows for external plotting.
func IngestCSV(ps []IngestPoint) string {
	var b strings.Builder
	b.WriteString("dataset,offered,queries,admitted,shed,cuts,applied,coalesce_ratio,ops_per_sec," +
		"op_latency_p50_ms,op_latency_p99_ms,avg_latency,avg_tuning,avg_epoch_restarts\n")
	for _, p := range ps {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%.3f,%.1f,%.3f,%.3f,%.4f,%.4f,%.4f\n",
			p.Dataset, p.Offered, p.Queries, p.Admitted, p.Shed, p.Cuts, p.Applied,
			p.CoalesceRatio, p.OpsPerSec, p.OpLatencyP50Ms, p.OpLatencyP99Ms,
			p.AvgLatency, p.AvgTuning, p.AvgEpochRestarts)
	}
	return b.String()
}
