package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/stream"
	"airindex/internal/testutil"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

// requireDecodeEqual loads fp's snapshot — decoding its packets back into
// an arena — and requires the result to equal fp field for field.
func requireDecodeEqual(t *testing.T, label string, fp *core.FlatPaged) {
	t.Helper()
	got, err := core.LoadSnapshot(fp.Snapshot())
	if err != nil {
		t.Fatalf("%s: load: %v", label, err)
	}
	if d := core.ArenaDiff(got, fp); d != "" {
		t.Fatalf("%s: decoded arena differs: %s", label, d)
	}
}

// requireDecodeSites builds the index over sites at each capacity, with
// top-down and greedy paging, and round-trips every arena.
func requireDecodeSites(t *testing.T, label string, sites []geom.Point, capacities ...int) {
	t.Helper()
	sub, err := voronoi.Subdivision(testutil.BigArea, sites)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	tree, err := core.Build(sub)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, capacity := range capacities {
		for _, greedy := range []bool{false, true} {
			page := tree.Page
			if greedy {
				page = tree.PageGreedy
			}
			paged, err := page(wire.DTreeParams(capacity))
			if err != nil {
				t.Fatalf("%s cap=%d: %v", label, capacity, err)
			}
			requireDecodeEqual(t, fmt.Sprintf("%s cap=%d greedy=%v", label, capacity, greedy), paged.Flatten())
		}
	}
}

// TestDecodeIndexRoundTrip: decoding an arena's packets (what a snapshot
// stores) rebuilds that arena exactly — records, pools and packet tables —
// for uniform and degenerate site sets under both pagings, for every
// generation an incremental swapper cuts, and for fabric shards carrying
// adjacency tables with global ids. Snapshot bytes that compare equal thus
// mean equal arenas.
func TestDecodeIndexRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 40, 250, 1000} {
		sites := testutil.RandomSites(testutil.BigArea, n, int64(500+n))
		requireDecodeSites(t, fmt.Sprintf("uniform n=%d", n), sites, 64, 128, 256, 1024, 2048)
	}
	for seed := int64(0); seed < 20; seed++ {
		requireDecodeSites(t, fmt.Sprintf("degenerate seed=%d", seed), testutil.DegenerateSites(150, seed), 64, 128, 1024)
	}
	if !testing.Short() {
		requireDecodeSites(t, "uniform n=10k", testutil.RandomSites(testutil.BigArea, 10000, 510), 128, 256)
	}

	sw, err := stream.NewSwapper(testutil.BigArea, testutil.RandomSites(testutil.BigArea, 200, 520), 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(521))
	for gen := 0; gen < 12; gen++ {
		g := sw.Current()
		requireDecodeEqual(t, fmt.Sprintf("swapper generation %d", g.Gen), g.Flat)
		ops := []stream.SiteOp{{Kind: stream.OpMove, ID: g.IDs[rng.Intn(len(g.IDs))],
			P: geom.Pt(rng.Float64()*testutil.BigArea.W(), rng.Float64()*testutil.BigArea.H())}}
		if _, _, err := sw.Apply(ops); err != nil {
			t.Fatalf("generation %d: %v", g.Gen, err)
		}
	}

	ds := dataset.Uniform(300, 522)
	f, err := fabric.Build(ds.Area, ds.Sites, 3, 128, fabric.Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range f.Shards {
		if sh.Flat.Flat.Adjacency() == nil {
			t.Fatalf("shard %d carries no adjacency table", sh.Channel)
		}
		requireDecodeEqual(t, fmt.Sprintf("fabric shard %d", sh.Channel), sh.Flat)
	}
}
