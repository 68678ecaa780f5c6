package distidx

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

// TestCrossShardRoutingProperty is the cross-shard routing property suite:
// at every cut depth, the replicated upper levels act as a channel
// directory over the segment "shards", and a directory-routed lookup must
// agree with a flat D-tree index over the union of all partitions. The
// query workers share one Index concurrently, so running the suite under
// -race also proves the routed read path is free of hidden mutation.
func TestCrossShardRoutingProperty(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{
		{80, 901},
		{160, 902},
		{240, 903},
	} {
		sub, _ := testutil.RandomVoronoi(t, tc.n, tc.seed)
		tree, err := core.Build(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, capacity := range []int{128, 256} {
			params := wire.DTreeParams(capacity)
			flat := arena(t, tree, params)
			for d := 1; d < tree.Height(); d++ {
				idx, err := NewWithDepth(tree, params, d)
				if err != nil {
					t.Fatalf("n=%d cap=%d depth=%d: %v", tc.n, capacity, d, err)
				}

				// Property 1: the segments partition the region set — every
				// region appears in exactly one segment, and segOf agrees.
				seen := make(map[int]int)
				for si := range idx.segments {
					for _, b := range idx.segments[si].buckets {
						if prev, dup := seen[b]; dup {
							t.Fatalf("depth %d: region %d in segments %d and %d", d, b, prev, si)
						}
						seen[b] = si
						if idx.segOf[b] != si {
							t.Fatalf("depth %d: segOf[%d] = %d, laid out in %d", d, b, idx.segOf[b], si)
						}
					}
				}
				if len(seen) != sub.N() {
					t.Fatalf("depth %d: %d regions across segments, subdivision has %d", d, len(seen), sub.N())
				}

				// Property 2: directory-routed lookups agree with the flat
				// index, checked from concurrently running workers sharing
				// the one Index (the -race half of the property).
				const workers, perWorker = 4, 150
				var wg sync.WaitGroup
				errc := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(tc.seed*1000 + int64(capacity*10+d*100+w)))
						for i := 0; i < perWorker; i++ {
							p := geom.Pt(
								sub.Area.MinX+rng.Float64()*sub.Area.W(),
								sub.Area.MinY+rng.Float64()*sub.Area.H(),
							)
							want, _ := flat.Locate(p)
							c, err := idx.Access(p, rng.Float64()*float64(idx.CycleLen()))
							if err != nil {
								errc <- fmt.Errorf("depth %d: access at %v: %w", d, p, err)
								return
							}
							if c.Bucket != want {
								errc <- fmt.Errorf("depth %d: routed lookup at %v answered %d, flat index says %d", d, p, c.Bucket, want)
								return
							}
							if idx.segOf[c.Bucket] != seen[c.Bucket] {
								errc <- fmt.Errorf("depth %d: bucket %d routed to segment %d, laid out in %d", d, c.Bucket, idx.segOf[c.Bucket], seen[c.Bucket])
								return
							}
							if c.Latency <= 0 || c.TuneIndex < 1 {
								errc <- fmt.Errorf("depth %d: degenerate cost %+v at %v", d, c, p)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Fatalf("n=%d cap=%d: %v", tc.n, capacity, err)
				}
			}
		}
	}
}
