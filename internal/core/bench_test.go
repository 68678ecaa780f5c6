package core

import (
	"fmt"
	"math/rand"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/wire"
)

// benchSubdivision derives the valid scopes of a uniform dataset once per
// size; the Voronoi construction is setup cost, not part of the measured op.
var benchSubs = map[int]*region.Subdivision{}

func benchSubdivision(b *testing.B, n int) *region.Subdivision {
	b.Helper()
	if sub, ok := benchSubs[n]; ok {
		return sub
	}
	sub, err := dataset.Uniform(n, int64(n)).Subdivision()
	if err != nil {
		b.Fatal(err)
	}
	benchSubs[n] = sub
	return sub
}

// BenchmarkBuildDTree measures D-tree construction alone (partition search
// over a prebuilt subdivision) at the scaling tiers of the build pipeline.
func BenchmarkBuildDTree(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("N=%dk", n/1000), func(b *testing.B) {
			sub := benchSubdivision(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

const benchCapacity = 256

// benchPaged builds and pages the D-tree once per size.
func benchPaged(b *testing.B, n int) *Paged {
	b.Helper()
	tree, err := Build(benchSubdivision(b, n))
	if err != nil {
		b.Fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(benchCapacity))
	if err != nil {
		b.Fatal(err)
	}
	return paged
}

// benchQueries fixes a deterministic query workload over the service area.
func benchQueries(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	return pts
}

// BenchmarkLocate measures point location with the early-termination trace
// on the pointer-tree paging — the representation the flat arena replaced
// on the serving path. Kept as the baseline the perf-smoke CI job compares
// BenchmarkFlatLocate against.
func BenchmarkLocate(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("N=%dk", n/1000), func(b *testing.B) {
			paged := benchPaged(b, n)
			queries := benchQueries(1024, int64(n))
			var trace []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, trace = paged.LocateInto(queries[i&1023], trace[:0])
			}
		})
	}
}

// BenchmarkFlatLocate is BenchmarkLocate over the flat arena: same tree,
// same queries, same early-termination semantics, contiguous 64-byte node
// records instead of pointer chasing. Must run 0 allocs/op.
func BenchmarkFlatLocate(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("N=%dk", n/1000), func(b *testing.B) {
			fp := benchPaged(b, n).Flatten()
			queries := benchQueries(1024, int64(n))
			var trace []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, trace = fp.LocateInto(queries[i&1023], trace[:0])
			}
		})
	}
}

// BenchmarkSnapshotSave measures serializing the arena to its snapshot and
// reports the file size.
func BenchmarkSnapshotSave(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("N=%dk", n/1000), func(b *testing.B) {
			fp := benchPaged(b, n).Flatten()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(fp.Snapshot()) == 0 {
					b.Fatal("empty snapshot")
				}
			}
			b.ReportMetric(float64(len(fp.Snapshot())), "file-B")
		})
	}
}

// BenchmarkSnapshotLoad measures restoring a serving-ready index from its
// snapshot — the restart path that replaces BenchmarkSnapshotRebuild.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("N=%dk", n/1000), func(b *testing.B) {
			data := benchPaged(b, n).Flatten().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := LoadSnapshot(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotRebuild is the cost a restart pays without a snapshot:
// full D-tree construction, paging and flattening from the subdivision.
func BenchmarkSnapshotRebuild(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("N=%dk", n/1000), func(b *testing.B) {
			sub := benchSubdivision(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree, err := Build(sub)
				if err != nil {
					b.Fatal(err)
				}
				paged, err := tree.Page(wire.DTreeParams(benchCapacity))
				if err != nil {
					b.Fatal(err)
				}
				if paged.Flatten() == nil {
					b.Fatal("nil arena")
				}
			}
		})
	}
}
