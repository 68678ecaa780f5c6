package fabric

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/stream"
)

// TestSwapperPerShardGenerationCuts: churn confined to one shard's
// interior republishes that shard alone — every other channel keeps its
// generation and its exact program.
func TestSwapperPerShardGenerationCuts(t *testing.T) {
	ds := dataset.Uniform(200, 21)
	const (
		capacity = 128
		S        = 4
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pick the site nearest the center of shard 0's rectangle — churn
	// there only perturbs Voronoi cells deep inside the shard.
	center := sw.rects[0].Center()
	best, bestDist := -1, math.Inf(1)
	ids, sites := sw.maint.LiveSites()
	for i, id := range ids {
		if d := sites[i].Dist(center); d < bestDist {
			best, bestDist = id, d
		}
	}
	to := sites[best].Add(geom.Pt(3, 3))
	beforePkts := make([][][]byte, S)
	for ch := 0; ch < S; ch++ {
		beforePkts[ch] = sw.Current(ch).Shard.Prog.IndexPackets
	}
	gens, opIDs, err := sw.Apply([]stream.SiteOp{{Kind: stream.OpMove, ID: best, P: to}})
	if err != nil {
		t.Fatal(err)
	}
	if len(opIDs) != 1 {
		t.Fatalf("batch mapped to %d ids", len(opIDs))
	}
	if gens[0] != 2 {
		t.Fatalf("shard 0 at generation %d after interior churn, want 2", gens[0])
	}
	for ch := 1; ch < S; ch++ {
		if gens[ch] != 1 {
			t.Fatalf("shard %d republished (generation %d) by churn confined to shard 0", ch, gens[ch])
		}
		if cur := sw.Current(ch).Shard.Prog.IndexPackets; len(cur) != len(beforePkts[ch]) {
			t.Fatalf("shard %d program changed without a generation bump", ch)
		} else {
			for k := range cur {
				if !bytes.Equal(cur[k], beforePkts[ch][k]) {
					t.Fatalf("shard %d index packet %d changed without a generation bump", ch, k)
				}
			}
		}
	}
	if sw.Generation(0, 2) == nil || sw.Generation(0, 1) == nil {
		t.Fatal("shard 0 generation history incomplete")
	}
}

// TestSwapperMatchesFreshBuild: after arbitrary global churn, every
// shard's current program is byte-identical to a from-scratch fabric build
// of the live site set — the incremental path introduces no drift, the
// cross-shard analogue of the maintainer's bit-identity property.
func TestSwapperMatchesFreshBuild(t *testing.T) {
	ds := dataset.Uniform(150, 5)
	const (
		capacity = 128
		S        = 3
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	for batch := 0; batch < 5; batch++ {
		ops := make([]stream.SiteOp, 0, 4)
		live := sw.LiveSiteIDs()
		for i := 0; i < 4; i++ {
			p := randomPoint(rng, ds.Area)
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, stream.SiteOp{Kind: stream.OpAdd, P: p})
			case 1:
				ops = append(ops, stream.SiteOp{Kind: stream.OpRemove, ID: live[rng.Intn(len(live))]})
			default:
				ops = append(ops, stream.SiteOp{Kind: stream.OpMove, ID: live[rng.Intn(len(live))], P: p})
			}
		}
		if _, _, err := sw.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	ids, polys := sw.maint.LiveCells()
	fresh, err := fromCells(ids, polys, sw.dir, sw.rects, capacity, sw.opts, sw.maint.Site, "")
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < S; ch++ {
		cur := sw.Current(ch).Shard
		want := fresh.Shards[ch]
		if len(cur.IDs) != len(want.IDs) {
			t.Fatalf("shard %d: %d buckets incrementally, %d from scratch", ch, len(cur.IDs), len(want.IDs))
		}
		for i := range cur.IDs {
			if cur.IDs[i] != want.IDs[i] {
				t.Fatalf("shard %d bucket %d: global %d vs %d", ch, i, cur.IDs[i], want.IDs[i])
			}
		}
		if len(cur.Prog.IndexPackets) != len(want.Prog.IndexPackets) {
			t.Fatalf("shard %d: %d index packets incrementally, %d from scratch", ch, len(cur.Prog.IndexPackets), len(want.Prog.IndexPackets))
		}
		for k := range cur.Prog.IndexPackets {
			if !bytes.Equal(cur.Prog.IndexPackets[k], want.Prog.IndexPackets[k]) {
				t.Fatalf("shard %d index packet %d differs from a fresh build", ch, k)
			}
		}
	}
}
