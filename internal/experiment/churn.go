package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/stream"
)

// This file hosts the live-reconfiguration extension experiment: how much
// access latency and tuning a hot program swap costs the clients that are
// querying while the site population churns. Each cell runs a real TCP
// server with a one-shard fabric.Swapper applying add/remove/move batches
// concurrently with the measured queries, so the numbers include every
// protocol effect — mid-query epoch restarts, abandoned index walks,
// re-probes, and the dozing backoff.

// ChurnPoint is one cell of the sweep: one churn level (site operations
// applied while the cell's queries run) measured over live streamed
// queries.
type ChurnPoint struct {
	Dataset string
	Ops     int // site operations applied during the cell (0 = static baseline)
	Queries int

	Swaps int // program generations published (successful batches)

	AvgLatency       float64 // slots, probe to final frame observed
	AvgTuning        float64 // active-radio packets, recovery included
	AvgEpochRestarts float64 // whole-query restarts forced by swaps, per query
	RestartedFrac    float64 // fraction of queries that hit at least one swap

	// Cut latency: the off-path compile cost of each generation cut
	// (incremental dirty-subtree rebuild, or a full rebuild when the batch
	// is large) and the end-to-end reconfiguration latency including
	// publish, from the server's swap histograms. Milliseconds.
	CutBuildP50  float64
	CutBuildP90  float64
	CutBuildP99  float64
	SwapP50      float64
	SwapP99      float64
	DirtyPermill int64 // rebuilt-node fraction of the last cut, permille

	// Obs holds the cell's full observability snapshot — the live server's
	// frame/connection/swap metrics (including the swap-latency histogram)
	// and the client's distributions — keyed "server" and "client" (JSON
	// output only).
	Obs map[string]any `json:",omitempty"`
}

// ChurnLevels returns the sweep's default churn levels (site operations per
// cell of `queries` queries).
func ChurnLevels() []int { return []int{0, 8, 32, 128} }

// ChurnBatch assembles one random add/remove/move batch of size ops over
// the live site ids that keeps the population hovering around n0. Sites
// land uniformly in dataset.Area; the draw order is fixed, so one seed
// replays the same batches.
func ChurnBatch(ids []int, rng *rand.Rand, size, n0 int) []stream.SiteOp {
	ops := make([]stream.SiteOp, 0, size)
	for len(ops) < size {
		randomPt := geom.Pt(
			dataset.Area.MinX+rng.Float64()*dataset.Area.W(),
			dataset.Area.MinY+rng.Float64()*dataset.Area.H(),
		)
		switch k := rng.Intn(3); {
		case k == 0 || len(ids) <= n0/2:
			ops = append(ops, stream.SiteOp{Kind: stream.OpAdd, P: randomPt})
		case k == 1 && len(ids) > n0/2:
			j := ids[rng.Intn(len(ids))]
			ops = append(ops, stream.SiteOp{Kind: stream.OpRemove, ID: j})
			ids = dropID(ids, j)
		default:
			j := ids[rng.Intn(len(ids))]
			ops = append(ops, stream.SiteOp{Kind: stream.OpMove, ID: j, P: randomPt})
			ids = dropID(ids, j)
		}
	}
	return ops
}

// serveSingleChannel starts a live one-channel broadcast of the dataset on
// a loopback listener: a one-shard fabric swapper bound to its server.
func serveSingleChannel(ds dataset.Dataset, capacity int, opts fabric.Options) (*fabric.Swapper, *stream.Server, error) {
	sw, err := fabric.NewSwapper(ds.Area, ds.Sites, 1, capacity, opts)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv, err := stream.NewServer(ln, sw.Programs()[0])
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	sw.Bind(0, srv)
	go srv.Serve() //nolint:errcheck
	return sw, srv, nil
}

// checkAnswer verifies a live point answer against the ground truth of the
// generation it completed under: the bucket must name a region of that
// generation that contains p (points on shared edges belong to every
// incident region), and its payload must carry the bucket's stamp.
func checkAnswer(sw *fabric.Swapper, p geom.Point, res stream.Result, capacity int) error {
	g := sw.Generation(0, res.Generation)
	if g == nil {
		return fmt.Errorf("unknown generation %d", res.Generation)
	}
	sub := g.Shard.Sub
	if res.Bucket < 0 || res.Bucket >= sub.N() {
		return fmt.Errorf("bucket %d outside generation %d's %d regions", res.Bucket, res.Generation, sub.N())
	}
	if want := sub.Locate(p); res.Bucket != want && !sub.Regions[res.Bucket].Poly.Contains(p) {
		return fmt.Errorf("at %v: bucket %d, want %d (generation %d)", p, res.Bucket, want, res.Generation)
	}
	return stream.VerifyStampedData(res.Data, capacity, res.Bucket)
}

func dropID(ids []int, id int) []int {
	out := make([]int, 0, len(ids))
	for _, j := range ids {
		if j != id {
			out = append(out, j)
		}
	}
	return out
}

// RunChurn sweeps churn level over live streamed queries against one
// dataset at one packet capacity. Levels should include 0 (the static
// baseline every penalty is measured against). Every query must resolve to
// the region correct for the generation it completed under, or the sweep
// fails — churn degrades latency and tuning, never correctness.
func RunChurn(ds dataset.Dataset, capacity int, levels []int, queries int, seed int64) ([]ChurnPoint, error) {
	if queries <= 0 {
		queries = 100
	}
	var out []ChurnPoint
	for _, ops := range levels {
		pt, err := runChurnCell(ds, capacity, ops, queries, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: churn level %d: %w", ops, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// runChurnCell measures one churn level over a fresh server. The driver
// goroutine applies batches while the measuring client queries, so swaps
// land mid-query; batches are paced across the run by query count.
func runChurnCell(ds dataset.Dataset, capacity, churnOps, queries int, seed int64) (ChurnPoint, error) {
	sw, srv, err := serveSingleChannel(ds, capacity, fabric.Options{})
	if err != nil {
		return ChurnPoint{}, err
	}
	defer srv.Close()

	client, err := stream.Dial(srv.Addr().String(), capacity)
	if err != nil {
		return ChurnPoint{}, err
	}
	defer client.Close()
	cm := stream.NewClientMetrics()
	client.Metrics = cm

	// The driver owns all swapper mutations — it composes each batch from
	// the live site ids at apply time (composing in the query goroutine
	// would race with its own earlier, still-in-flight batches) and applies
	// it concurrently with the queries being measured.
	const batchSize = 4
	batches := make(chan int, 1)
	driverDone := make(chan error, 1)
	go func() {
		defer close(driverDone)
		drng := rand.New(rand.NewSource(seed + int64(churnOps)*31 + 1))
		for n := range batches {
			if _, _, err := sw.Apply(ChurnBatch(sw.LiveSiteIDs(), drng, n, ds.N())); err != nil {
				driverDone <- err
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed + int64(churnOps)*31))
	pt := ChurnPoint{Dataset: ds.Name, Ops: churnOps, Queries: queries}
	sent := 0
	every := 1
	if churnOps > 0 {
		if every = queries * batchSize / churnOps; every < 1 {
			every = 1
		}
	}
	restarted := 0
	for q := 0; q < queries; q++ {
		if churnOps > 0 && sent < churnOps && q%every == 0 {
			n := batchSize
			if n > churnOps-sent {
				n = churnOps - sent
			}
			select {
			case batches <- n:
				sent += n
			case err := <-driverDone:
				close(batches)
				return pt, err
			}
		}
		p := geom.Pt(
			dataset.Area.MinX+rng.Float64()*dataset.Area.W(),
			dataset.Area.MinY+rng.Float64()*dataset.Area.H(),
		)
		res, err := client.Query(p)
		if err != nil {
			close(batches)
			return pt, fmt.Errorf("query %d at %v: %w", q, p, err)
		}
		if err := checkAnswer(sw, p, res, capacity); err != nil {
			close(batches)
			return pt, fmt.Errorf("query %d: %w", q, err)
		}
		pt.AvgLatency += res.Latency
		pt.AvgTuning += float64(res.TotalTuning())
		pt.AvgEpochRestarts += float64(res.EpochRestarts)
		if res.EpochRestarts > 0 {
			restarted++
		}
	}
	close(batches)
	if err, ok := <-driverDone; ok && err != nil {
		return pt, err
	}
	qf := float64(queries)
	pt.AvgLatency /= qf
	pt.AvgTuning /= qf
	pt.AvgEpochRestarts /= qf
	pt.RestartedFrac = float64(restarted) / qf
	pt.Swaps = int(sw.Current(0).Gen - 1)
	sm := srv.Metrics()
	const ms = 1e6 // histogram samples are nanoseconds
	cb, sl := sm.CutBuildNS.Snapshot(), sm.SwapLatencyNS.Snapshot()
	pt.CutBuildP50 = float64(cb.P50) / ms
	pt.CutBuildP90 = float64(cb.P90) / ms
	pt.CutBuildP99 = float64(cb.P99) / ms
	pt.SwapP50 = float64(sl.P50) / ms
	pt.SwapP99 = float64(sl.P99) / ms
	pt.DirtyPermill = sm.CutDirtyPermille.Load()
	pt.Obs = map[string]any{"server": sm.Snapshot(), "client": cm.Snapshot()}

	// Disconnect before draining: a connected client that has stopped
	// reading would hold its connection short of the cycle boundary.
	client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return pt, fmt.Errorf("shutdown after churn cell: %w", err)
	}
	return pt, nil
}

// ChurnTables renders the sweep: latency, tuning, and restart penalty as
// functions of the churn level.
func ChurnTables(ps []ChurnPoint) string {
	if len(ps) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — live reconfiguration cost vs churn (site ops per %d queries)\n",
		ps[0].Dataset, ps[0].Queries)
	fmt.Fprintf(&b, "%-10s %8s %14s %14s %16s %16s\n",
		"ops", "swaps", "avg latency", "avg tuning", "epoch restarts", "restarted frac")
	for _, p := range ps {
		fmt.Fprintf(&b, "%-10d %8d %14.3f %14.3f %16.4f %16.4f\n",
			p.Ops, p.Swaps, p.AvgLatency, p.AvgTuning, p.AvgEpochRestarts, p.RestartedFrac)
	}
	b.WriteString("\ncut latency (generation compile off the serving path, ms)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %12s %12s %8s\n",
		"ops", "build p50", "build p90", "build p99", "swap p50", "swap p99", "dirty pm")
	for _, p := range ps {
		if p.Swaps == 0 {
			fmt.Fprintf(&b, "%-10d %10s %10s %10s %12s %12s %8s\n", p.Ops, "-", "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-10d %10.2f %10.2f %10.2f %12.2f %12.2f %8d\n",
			p.Ops, p.CutBuildP50, p.CutBuildP90, p.CutBuildP99, p.SwapP50, p.SwapP99, p.DirtyPermill)
	}
	return b.String()
}

// ChurnCSV renders the sweep as comma-separated rows for external plotting.
func ChurnCSV(ps []ChurnPoint) string {
	var b strings.Builder
	b.WriteString("dataset,ops,queries,swaps,avg_latency,avg_tuning,avg_epoch_restarts,restarted_frac," +
		"cut_build_p50_ms,cut_build_p90_ms,cut_build_p99_ms,swap_p50_ms,swap_p99_ms,dirty_permille\n")
	for _, p := range ps {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.3f,%.3f,%.3f,%.3f,%.3f,%d\n",
			p.Dataset, p.Ops, p.Queries, p.Swaps, p.AvgLatency, p.AvgTuning, p.AvgEpochRestarts, p.RestartedFrac,
			p.CutBuildP50, p.CutBuildP90, p.CutBuildP99, p.SwapP50, p.SwapP99, p.DirtyPermill)
	}
	return b.String()
}
