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

// TestSwapperRetainedHeap pins what a live fabric keeps between cuts
// against the single channel on the same sites. The one-shard swapper is
// the single channel plus its clip sequence, which shares the maintainer's
// cells instead of copying them. The two-shard adjacency swapper retains
// its maintainer, its shards' compilers and its clips, but no global
// tiling of its own.
func TestSwapperRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 10k-site broadcasts")
	}
	const capacity, maxRatioS1, maxRatioS2 = 128, 1.08, 1.4
	ds := dataset.LargeUniform(10_000)
	single := retainedHeap(t, func() (any, error) {
		return stream.NewSwapper(ds.Area, ds.Sites, capacity, 0)
	})
	for _, tc := range []struct {
		S        int
		opts     Options
		maxRatio float64
	}{
		{1, Options{}, maxRatioS1},
		{2, Options{Adjacency: true}, maxRatioS2},
	} {
		fab := retainedHeap(t, func() (any, error) {
			return NewSwapper(ds.Area, ds.Sites, tc.S, capacity, tc.opts)
		})
		ratio := fab / single
		t.Logf("retained heap: single channel %.2f MiB, S=%d fabric %.2f MiB (%.2fx)", single/(1<<20), tc.S, fab/(1<<20), ratio)
		if ratio > tc.maxRatio {
			t.Errorf("S=%d fabric retains %.2fx the single channel's heap, bound %.2fx", tc.S, ratio, tc.maxRatio)
		}
	}
}
