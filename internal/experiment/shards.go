package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/voronoi"
)

// This file hosts the sharded-fabric extension experiment: how splitting
// one broadcast channel into S spatial shards — each carrying a D-tree
// over its partition plus the replicated channel directory — trades
// access latency against the directory-and-hop tuning overhead. S = 1 is
// the classic single-channel D-tree broadcast with no directory, the
// baseline every speedup is measured against. Every sharded answer is
// verified against the global ground truth, so the sweep doubles as a
// large Monte Carlo run of the fabric's bit-identity invariant.

// ShardPoint is one cell of the shard sweep: one channel count measured
// over simulated hopping accesses with random entry channels.
type ShardPoint struct {
	Dataset  string
	Sites    int
	Capacity int
	Shards   int
	Queries  int

	DirPackets int // replicated directory prefix, packets per index copy

	AvgLatency    float64 // slots, probe to final data packet
	AvgTuning     float64 // active-radio packets, all phases
	AvgTuneIndex  float64 // D-tree descent packets
	AvgTuneDir    float64 // directory packets parsed
	AvgHops       float64 // channel hops per query
	SpeedupVsS1   float64 // single-channel latency / this row's latency
	TuningDeltaS1 float64 // AvgTuning - single-channel tuning (packets)

	BuildSeconds float64 // wall time to compile this row's broadcast
}

// ShardCounts returns the sweep's default channel counts.
func ShardCounts() []int { return []int{1, 2, 4, 8} }

// shardQuery is one pre-drawn Monte Carlo access: the query stream is
// drawn sequentially so results are bit-identical at any worker count.
type shardQuery struct {
	p    geom.Point
	u    float64
	want int // ground-truth global region
}

// shardCost is one access's per-query cost record (reduced in query order).
type shardCost struct {
	lat     float64
	tuneIdx int32
	tuneDir int32
	tune    int32
	hops    int32
}

// RunShards sweeps the channel count over simulated fabric accesses
// against one dataset at one packet capacity. counts defaults to
// ShardCounts; the single-channel baseline is measured regardless so
// every row's SpeedupVsS1 is well defined. Every sharded access is
// verified against the global Voronoi ground truth with the usual
// shared-boundary tolerance, or the sweep fails.
func RunShards(ds dataset.Dataset, capacity int, counts []int, cfg Config) ([]ShardPoint, error) {
	cfg = cfg.withDefaults()
	if len(counts) == 0 {
		counts = ShardCounts()
	}
	sub, err := voronoi.Subdivision(ds.Area, ds.Sites)
	if err != nil {
		return nil, err
	}

	// One sequentially drawn query stream shared by every row: uniform
	// over the service area (the directory routes spatially, so
	// area-uniform points exercise every shard in proportion to the
	// territory it serves). Ground truth is resolved once, up front.
	q := cfg.Queries
	rng := rand.New(rand.NewSource(cfg.Seed))
	queries := make([]shardQuery, q)
	for i := range queries {
		p := geom.Pt(
			ds.Area.MinX+rng.Float64()*ds.Area.W(),
			ds.Area.MinY+rng.Float64()*ds.Area.H(),
		)
		queries[i] = shardQuery{p: p, u: rng.Float64(), want: sub.Locate(p)}
	}

	base, err := runShardCell(ds, sub, capacity, 1, queries, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: shards baseline: %w", err)
	}

	var out []ShardPoint
	for _, S := range counts {
		pt := base
		if S != 1 {
			pt, err = runShardCell(ds, sub, capacity, S, queries, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment: shards S=%d: %w", S, err)
			}
		}
		pt.SpeedupVsS1 = base.AvgLatency / pt.AvgLatency
		pt.TuningDeltaS1 = pt.AvgTuning - base.AvgTuning
		out = append(out, pt)
	}
	return out, nil
}

// runShardCell compiles an S-channel fabric from the dataset's sites and
// runs the hopping access protocol over the shared query stream with
// deterministic random entry channels, verifying every answer against the
// global ground truth. S = 1 is the single channel: no directory, no hops.
func runShardCell(ds dataset.Dataset, sub *region.Subdivision, capacity, S int, queries []shardQuery, cfg Config) (ShardPoint, error) {
	start := time.Now()
	f, err := fabric.Build(ds.Area, ds.Sites, S, capacity, fabric.Options{BuildWorkers: cfg.BuildWorkers})
	if err != nil {
		return ShardPoint{}, err
	}
	buildSecs := time.Since(start).Seconds()

	// Entry channels are drawn sequentially, outside the worker loop, so
	// the cell is bit-identical at any worker count.
	entries := make([]int, len(queries))
	erng := rand.New(rand.NewSource(cfg.Seed + int64(S)*101))
	for i := range entries {
		entries[i] = erng.Intn(S)
	}

	costs := make([]shardCost, len(queries))
	if err := forEachShard(cfg.Workers, len(queries), func(lo, hi int) error {
		var buf []int
		for i := lo; i < hi; i++ {
			sq := &queries[i]
			c, trace, err := f.AccessInto(sq.p, entries[i], sq.u, buf)
			if err != nil {
				return err
			}
			buf = trace
			if c.Global != sq.want && !sub.Regions[c.Global].Poly.Contains(sq.p) {
				return fmt.Errorf("query %v -> global %d via shard %d, single channel says %d",
					sq.p, c.Global, c.Shard, sq.want)
			}
			costs[i] = shardCost{
				lat:     c.Latency,
				tuneIdx: int32(c.TuneIndex),
				tuneDir: int32(c.TuneDirectory),
				tune:    int32(c.TotalTuning()),
				hops:    int32(c.Hops),
			}
		}
		return nil
	}); err != nil {
		return ShardPoint{}, err
	}
	pt := ShardPoint{
		Dataset:      ds.Name,
		Sites:        len(ds.Sites),
		Capacity:     capacity,
		Shards:       S,
		Queries:      len(queries),
		DirPackets:   f.DirPackets,
		BuildSeconds: buildSecs,
	}
	reduceShardCosts(&pt, costs)
	return pt, nil
}

func reduceShardCosts(pt *ShardPoint, costs []shardCost) {
	var lat, tuneIdx, tuneDir, tune, hops float64
	for i := range costs {
		lat += costs[i].lat
		tuneIdx += float64(costs[i].tuneIdx)
		tuneDir += float64(costs[i].tuneDir)
		tune += float64(costs[i].tune)
		hops += float64(costs[i].hops)
	}
	qf := float64(len(costs))
	pt.AvgLatency = lat / qf
	pt.AvgTuneIndex = tuneIdx / qf
	pt.AvgTuneDir = tuneDir / qf
	pt.AvgTuning = tune / qf
	pt.AvgHops = hops / qf
}

// ShardsTables renders the sweep: latency speedup and tuning overhead as
// functions of the channel count.
func ShardsTables(ps []ShardPoint) string {
	if len(ps) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — sharded fabric at %d sites, %d B packets (%d queries/row)\n",
		ps[0].Dataset, ps[0].Sites, ps[0].Capacity, ps[0].Queries)
	fmt.Fprintf(&b, "%-8s %8s %14s %12s %14s %10s %10s %12s %10s\n",
		"shards", "dir pkts", "avg latency", "speedup", "avg tuning", "Δtuning", "avg hops", "tune index", "build s")
	for _, p := range ps {
		fmt.Fprintf(&b, "%-8d %8d %14.3f %12.3f %14.3f %10.3f %10.3f %12.3f %10.2f\n",
			p.Shards, p.DirPackets, p.AvgLatency, p.SpeedupVsS1, p.AvgTuning, p.TuningDeltaS1, p.AvgHops, p.AvgTuneIndex, p.BuildSeconds)
	}
	return b.String()
}

// ShardsCSV renders the sweep as comma-separated rows for external
// plotting.
func ShardsCSV(ps []ShardPoint) string {
	var b strings.Builder
	b.WriteString("dataset,sites,capacity,shards,queries,dir_packets,avg_latency,speedup_vs_s1,avg_tuning,tuning_delta_s1,avg_hops,avg_tune_index,avg_tune_dir,build_seconds\n")
	for _, p := range ps {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.3f\n",
			p.Dataset, p.Sites, p.Capacity, p.Shards, p.Queries, p.DirPackets,
			p.AvgLatency, p.SpeedupVsS1, p.AvgTuning, p.TuningDeltaS1, p.AvgHops, p.AvgTuneIndex, p.AvgTuneDir, p.BuildSeconds)
	}
	return b.String()
}
