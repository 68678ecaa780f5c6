package stream_test

import (
	"math/rand"
	"testing"

	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/stream"
	"airindex/internal/testutil"
)

// The fabric imports this package, so its internal tests cannot build a
// fabric shard program themselves; this external test file hands them
// one through stream.ShardPrograms before any test runs.
func init() { stream.ShardPrograms = shardPrograms }

// shardPrograms returns three successive generations of channel 0 of a
// two-shard fabric with adjacency over 120 random sites: every index copy
// carries the directory prefix and the adjacency appendix, and every data
// packet its bucket's global id. The later generations come from random
// single-site moves that recompiled channel 0.
func shardPrograms(tb testing.TB, capacity int) []*stream.Program {
	tb.Helper()
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	sw, err := fabric.NewSwapper(area, testutil.RandomSites(area, 120, 8601), 2, capacity, fabric.Options{Adjacency: true})
	if err != nil {
		tb.Fatal(err)
	}
	progs := []*stream.Program{sw.Current(0).Shard.Prog}
	gen := sw.Current(0).Gen
	rng := rand.New(rand.NewSource(8602))
	for step := 0; step < 40 && len(progs) < 3; step++ {
		ids := sw.LiveSiteIDs()
		p := geom.Pt(area.MinX+rng.Float64()*(area.MaxX-area.MinX), area.MinY+rng.Float64()*(area.MaxY-area.MinY))
		if _, _, err := sw.Apply([]stream.SiteOp{{Kind: stream.OpMove, ID: ids[rng.Intn(len(ids))], P: p}}); err != nil {
			tb.Fatal(err)
		}
		if g := sw.Current(0); g.Gen != gen {
			progs, gen = append(progs, g.Shard.Prog), g.Gen
		}
	}
	if len(progs) < 3 {
		tb.Fatalf("40 moves cut channel 0 only %d times", len(progs)-1)
	}
	return progs
}
