package fabric

import (
	"runtime"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/stream"
)

// retainedHeap returns the live heap a value built by build keeps after a
// GC, measured against the live heap before the build.
func retainedHeap(t *testing.T, build func() (any, error)) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := build()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestSwapperRetainedHeap pins what a live sharded fabric keeps between
// cuts against the single channel on the same sites: the two-shard
// adjacency swapper retains its maintainer, its shards' compilers and its
// clips, but no global tiling of its own.
func TestSwapperRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 10k-site broadcasts")
	}
	const capacity, maxRatio = 128, 1.4
	ds := dataset.LargeUniform(10_000)
	single := retainedHeap(t, func() (any, error) {
		return stream.NewSwapper(ds.Area, ds.Sites, capacity, 0)
	})
	sharded := retainedHeap(t, func() (any, error) {
		return NewSwapper(ds.Area, ds.Sites, 2, capacity, Options{Adjacency: true})
	})
	ratio := sharded / single
	t.Logf("retained heap: single channel %.1f MiB, S=2 fabric %.1f MiB (%.2fx)", single/(1<<20), sharded/(1<<20), ratio)
	if ratio > maxRatio {
		t.Fatalf("S=2 fabric retains %.2fx the single channel's heap, bound %.2fx", ratio, maxRatio)
	}
}
