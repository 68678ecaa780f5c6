package airindex

// Benchmark harness regenerating the paper's evaluation (Figures 10-13 over
// the UNIFORM, HOSPITAL and PARK datasets) plus micro-benchmarks for every
// index structure. Each figure benchmark prints its series once — the same
// rows cmd/airbench reports — and times the per-query client simulation;
// run with:
//
//	go test -bench=. -benchmem
//
// The full-resolution sweep (1M queries, as in the paper) is available via
// cmd/airbench -queries 1000000.

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"airindex/internal/broadcast"
	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/distidx"
	"airindex/internal/experiment"
	"airindex/internal/geom"
	"airindex/internal/rstar"
	"airindex/internal/stream"
	"airindex/internal/traptree"
	"airindex/internal/triantree"
	"airindex/internal/wire"
)

// benchQueries is the Monte Carlo resolution used when a figure benchmark
// prints its series (the paper uses 1,000,000; the curves are stable well
// below this).
const benchQueries = 20000

var (
	builtMu    sync.Mutex
	builtCache = map[string]*experiment.Built{}
	msCache    = map[string][]experiment.Measurement{}
	printed    = map[string]bool{}
)

func getBuilt(b *testing.B, ds dataset.Dataset) *experiment.Built {
	b.Helper()
	builtMu.Lock()
	defer builtMu.Unlock()
	if bl, ok := builtCache[ds.Name]; ok {
		return bl
	}
	bl, err := experiment.Build(ds, 42)
	if err != nil {
		b.Fatal(err)
	}
	builtCache[ds.Name] = bl
	return bl
}

func getMeasurements(b *testing.B, ds dataset.Dataset) []experiment.Measurement {
	b.Helper()
	bl := getBuilt(b, ds)
	builtMu.Lock()
	defer builtMu.Unlock()
	if ms, ok := msCache[ds.Name]; ok {
		return ms
	}
	ms, err := experiment.Run(bl, experiment.Config{Queries: benchQueries, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	msCache[ds.Name] = ms
	return ms
}

func printOnce(key, table string) {
	builtMu.Lock()
	defer builtMu.Unlock()
	if printed[key] {
		return
	}
	printed[key] = true
	fmt.Printf("\n%s\n", table)
}

// paperDatasets returns the three evaluation datasets, constructed once.
var paperDatasets = dataset.Paper()

// benchFigure prints one figure's series for a dataset and then times the
// end-to-end client query path (index search + access simulation) on the
// D-tree at 512 B, so the reported ns/op tracks the simulation kernel.
func benchFigure(b *testing.B, ds dataset.Dataset, metric experiment.Metric) {
	ms := getMeasurements(b, ds)
	printOnce(metric.Name+ds.Name, fmt.Sprintf("=== Figure %s ===\n%s",
		metric.Name[3:], experiment.Table(ms, ds.Name, metric)))

	bl := getBuilt(b, ds)
	paged, err := bl.DTree.Page(wire.DTreeParams(512))
	if err != nil {
		b.Fatal(err)
	}
	fp := paged.Flatten()
	sched, err := broadcast.NewSchedule(fp.IndexPackets(), bl.Sub.N(), 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	area := bl.Sub.Area
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
		id, trace := fp.Locate(p)
		if _, err := sched.Access(rng.Float64()*float64(sched.CycleLen()),
			broadcast.SearchTrace{Bucket: id, IndexOffsets: trace}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10AccessLatency(b *testing.B) {
	for _, ds := range paperDatasets {
		b.Run(ds.Name, func(b *testing.B) { benchFigure(b, ds, experiment.MetricNormLatency) })
	}
}

func BenchmarkFig11IndexSize(b *testing.B) {
	for _, ds := range paperDatasets {
		b.Run(ds.Name, func(b *testing.B) { benchFigure(b, ds, experiment.MetricNormIndexSize) })
	}
}

func BenchmarkFig12TuningTime(b *testing.B) {
	for _, ds := range paperDatasets {
		b.Run(ds.Name, func(b *testing.B) { benchFigure(b, ds, experiment.MetricTuneIndex) })
	}
}

func BenchmarkFig13IndexingEfficiency(b *testing.B) {
	for _, ds := range paperDatasets {
		b.Run(ds.Name, func(b *testing.B) { benchFigure(b, ds, experiment.MetricEfficiency) })
	}
}

func BenchmarkAblationDTree(b *testing.B) {
	ds := paperDatasets[0]
	builtMu.Lock()
	done := printed["ablation"]
	printed["ablation"] = true
	builtMu.Unlock()
	if !done {
		ms, err := experiment.RunAblation(ds, experiment.Config{
			Capacities: []int{64, 256, 1024}, Queries: benchQueries / 2, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n=== D-tree ablations (%s) ===\n%s\n", ds.Name,
			experiment.Table(ms, ds.Name, experiment.MetricTuneIndex))
	}
	// Time the ablation-relevant kernel: full D-tree build.
	sub := getBuilt(b, ds).Sub
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(sub); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks -------------------------------------------------

func BenchmarkBuildVoronoi1000(b *testing.B) {
	ds := dataset.Uniform(1000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Subdivision(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildDTree(b *testing.B) {
	for _, ds := range paperDatasets {
		b.Run(ds.Name, func(b *testing.B) {
			sub := getBuilt(b, ds).Sub
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildTrianTree(b *testing.B) {
	sub := getBuilt(b, paperDatasets[0]).Sub
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := triantree.Build(sub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildTrapTree(b *testing.B) {
	sub := getBuilt(b, paperDatasets[0]).Sub
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traptree.Build(sub, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildRStarAir(b *testing.B) {
	sub := getBuilt(b, paperDatasets[0]).Sub
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rstar.BuildAir(sub, wire.RStarParams(512)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLocate times raw point location (no broadcast simulation) for one
// index over the UNIFORM dataset at 512 B packets.
func benchLocate(b *testing.B, locate func(geom.Point) (int, []int)) {
	area := dataset.Area
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if id, _ := locate(pts[i&1023]); id < 0 {
			b.Fatal("unresolved query")
		}
	}
}

func BenchmarkLocate(b *testing.B) {
	bl := getBuilt(b, paperDatasets[0])
	idxs, err := bl.Indexes(512)
	if err != nil {
		b.Fatal(err)
	}
	for _, idx := range idxs {
		b.Run(idx.Name(), func(b *testing.B) { benchLocate(b, idx.Locate) })
	}
}

func BenchmarkDTreePaging(b *testing.B) {
	tree := getBuilt(b, paperDatasets[0]).DTree
	for _, capacity := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("capacity%d", capacity), func(b *testing.B) {
			params := wire.DTreeParams(capacity)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Page(params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDTreeEncodePackets(b *testing.B) {
	tree := getBuilt(b, paperDatasets[0]).DTree
	paged, err := tree.Page(wire.DTreeParams(512))
	if err != nil {
		b.Fatal(err)
	}
	fp := paged.Flatten()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fp.EncodePackets(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTreeClientLocate(b *testing.B) {
	tree := getBuilt(b, paperDatasets[0]).DTree
	paged, err := tree.Page(wire.DTreeParams(512))
	if err != nil {
		b.Fatal(err)
	}
	packets, err := paged.Flatten().EncodePackets()
	if err != nil {
		b.Fatal(err)
	}
	benchLocate(b, func(p geom.Point) (int, []int) {
		id, trace, err := core.ClientLocate(packets, 512, p)
		if err != nil {
			b.Fatal(err)
		}
		return id, trace
	})
}

func BenchmarkFacadeAccess(b *testing.B) {
	sys, err := New(dataset.Uniform(200, 9).Sites, Config{PacketCapacity: 512})
	if err != nil {
		b.Fatal(err)
	}
	st := sys.Stats()
	rng := rand.New(rand.NewSource(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Pt(rng.Float64()*10000, rng.Float64()*10000)
		if _, err := sys.Access(p, rng.Float64()*float64(st.CyclePackets)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkewedAccessWeightedDTree(b *testing.B) {
	ds := paperDatasets[1] // HOSPITAL
	builtMu.Lock()
	done := printed["skew"]
	printed["skew"] = true
	builtMu.Unlock()
	if !done {
		ms, err := experiment.RunSkewed(ds, experiment.Config{
			Capacities: []int{128, 512, 2048}, Queries: benchQueries / 2, Seed: 42,
		}, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n=== Extension: skewed access ===\n%s\n", experiment.RenderSkew(ms, ds.Name, 1.0))
	}
	sub := getBuilt(b, ds).Sub
	weights := experiment.ZipfWeights(sub.N(), 1.0, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(sub, core.WithAccessWeights(weights)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientCachePinning(b *testing.B) {
	ds := paperDatasets[1]
	builtMu.Lock()
	done := printed["cache"]
	printed["cache"] = true
	builtMu.Unlock()
	if !done {
		rs, err := experiment.RunCached(ds, 256, []int{0, 1, 2, 4, 8, 16}, experiment.Config{
			Queries: benchQueries / 2, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n=== Extension: client cache ===\n%s\n", experiment.CacheTable(rs))
	}
	paged, err := getBuilt(b, ds).DTree.Page(wire.DTreeParams(256))
	if err != nil {
		b.Fatal(err)
	}
	benchLocate(b, paged.Flatten().Locate)
}

func BenchmarkStreamedQueryTCP(b *testing.B) {
	sub := getBuilt(b, paperDatasets[1]).Sub
	prog, err := stream.NewDTreeProgram(sub, 256, 0)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := stream.NewServer(ln, prog)
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	defer srv.Close()
	client, err := stream.Dial(ln.Addr().String(), 256)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		if _, err := client.Query(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedIndexing(b *testing.B) {
	ds := paperDatasets[0]
	builtMu.Lock()
	done := printed["dist"]
	printed["dist"] = true
	builtMu.Unlock()
	if !done {
		ms, err := experiment.RunDistributed(ds, experiment.Config{
			Capacities: []int{128, 512, 2048}, Queries: benchQueries / 2, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n=== Extension: (1,m) vs distributed indexing ===\n%s\n%s\n",
			experiment.Table(ms, ds.Name, experiment.MetricNormLatency),
			experiment.Table(ms, ds.Name, experiment.MetricTuneIndex))
	}
	tree := getBuilt(b, ds).DTree
	idx, err := distidx.New(tree, wire.DTreeParams(512))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		if _, err := idx.Access(p, rng.Float64()*float64(idx.CycleLen())); err != nil {
			b.Fatal(err)
		}
	}
}
