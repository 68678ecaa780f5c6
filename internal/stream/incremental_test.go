package stream

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
)

// requireProgramsIdentical asserts two programs put byte-identical cycles
// on the air: same encoded index packets and same rendered frames.
func requireProgramsIdentical(t *testing.T, label string, got, want *Program) {
	t.Helper()
	if len(got.IndexPackets) != len(want.IndexPackets) {
		t.Fatalf("%s: %d index packets, want %d", label, len(got.IndexPackets), len(want.IndexPackets))
	}
	for k := range got.IndexPackets {
		if !bytes.Equal(got.IndexPackets[k], want.IndexPackets[k]) {
			t.Fatalf("%s: index packet %d differs", label, k)
		}
	}
	grc, err := got.Rendered()
	if err != nil {
		t.Fatalf("%s: render got: %v", label, err)
	}
	wrc, err := want.Rendered()
	if err != nil {
		t.Fatalf("%s: render want: %v", label, err)
	}
	if grc.cycleLen() != wrc.cycleLen() {
		t.Fatalf("%s: cycle %d frames, want %d", label, grc.cycleLen(), wrc.cycleLen())
	}
	for pos := 0; pos < grc.cycleLen(); pos++ {
		g, w := grc.frame(pos), wrc.frame(pos)
		if !bytes.Equal(g[:headerSize], w[:headerSize]) {
			t.Fatalf("%s: frame %d header differs", label, pos)
		}
		if !bytes.Equal(g[headerSize:], w[headerSize:]) {
			t.Fatalf("%s: frame %d payload differs", label, pos)
		}
	}
}

// randomOps draws one Apply batch against the swapper's live id set,
// never reusing an id already removed earlier in the same batch.
func randomOps(rng *rand.Rand, sw *Swapper, batch int) []SiteOp {
	ids := sw.LiveSiteIDs()
	ops := make([]SiteOp, 0, batch)
	for i := 0; i < batch; i++ {
		p := geom.Pt(testArea.MinX+rng.Float64()*(testArea.MaxX-testArea.MinX),
			testArea.MinY+rng.Float64()*(testArea.MaxY-testArea.MinY))
		switch op := rng.Intn(3); {
		case op == 0 || len(ids) < 8:
			ops = append(ops, SiteOp{Kind: OpAdd, P: p})
		case op == 1:
			k := rng.Intn(len(ids))
			ops = append(ops, SiteOp{Kind: OpRemove, ID: ids[k]})
			ids = append(ids[:k], ids[k+1:]...)
		default:
			ops = append(ops, SiteOp{Kind: OpMove, ID: ids[rng.Intn(len(ids))], P: p})
		}
	}
	return ops
}

// TestRenderPatchedSharesDataCRC pins what the render path shares across
// cuts: a cut that keeps the bucket geometry (capacity, bucket count,
// packets per bucket) takes the previous generation's data-CRC table by
// reference and computes fresh index CRCs; a cut that adds or removes a
// bucket rebuilds the data table. Both hold for incremental cuts and for
// fallback cuts, whose batches dirty more than incrFullFraction of the
// sites and so rebuild the tree from scratch. Either way the cycle is
// byte-identical, frame by frame, to a cold render of the same program,
// and its CRC tables hold the cold render's values.
func TestRenderPatchedSharesDataCRC(t *testing.T) {
	const capacity = 256
	sites := testutil.RandomSites(testArea, 400, 8101)
	sw, err := NewSwapper(testArea, sites, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8102))
	shared, rebuilt, fallbackShared := 0, 0, 0
	for step := 0; step < 20; step++ {
		ops := randomOps(rng, sw, 1+rng.Intn(3))
		fallback := step >= 16
		if fallback {
			// Moves keep the bucket count; adds and removes change it.
			ops = moveOps(rng, sw, 160)
			if step%2 == 1 {
				ops = randomOps(rng, sw, 160)
			}
			// Every added site and every moved or removed one owns a dirty
			// cell, so touching more than incrFullFraction of the live sites
			// forces the full path.
			touched, adds := map[int]bool{}, 0
			for _, op := range ops {
				if op.Kind == OpAdd {
					adds++
				} else {
					touched[op.ID] = true
				}
			}
			if float64(len(touched)+adds) <= incrFullFraction*float64(sw.Len()) {
				t.Fatalf("step %d: %d touched sites do not force a fallback", step, len(touched)+adds)
			}
		}
		prev := sw.Program()
		if _, _, err := sw.Apply(ops); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		next := sw.Program()
		if next.Sched.NumBuckets == prev.Sched.NumBuckets {
			if !sharesDataCRC(prev.rendered, next.rendered) {
				t.Fatalf("step %d: bucket geometry kept (%d buckets) but the data-CRC table was rebuilt", step, next.Sched.NumBuckets)
			}
			if &next.rendered.indexCRC[0] == &prev.rendered.indexCRC[0] {
				t.Fatalf("step %d: index CRCs shared with the previous generation", step)
			}
			shared++
			if fallback {
				fallbackShared++
			}
		} else {
			if sharesDataCRC(prev.rendered, next.rendered) || len(next.rendered.dataCRC) != next.Sched.DataPackets() {
				t.Fatalf("step %d: %d -> %d buckets but the data-CRC table was not rebuilt", step, prev.Sched.NumBuckets, next.Sched.NumBuckets)
			}
			rebuilt++
		}
		// Re-render the same program cold, bypassing the patched table.
		cold := &Program{
			Capacity:     next.Capacity,
			IndexPackets: next.IndexPackets,
			Sched:        next.Sched,
			IDs:          next.IDs,
		}
		crc, err := cold.Rendered()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(next.rendered.dataCRC, crc.dataCRC) || !slices.Equal(next.rendered.indexCRC, crc.indexCRC) {
			t.Fatalf("step %d: CRC tables differ from a cold render", step)
		}
		requireProgramsIdentical(t, "step", next, cold)
	}
	if shared == 0 || rebuilt == 0 || fallbackShared == 0 {
		t.Fatalf("%d shared (%d after a fallback) and %d rebuilt data tables; the test needs all three", shared, fallbackShared, rebuilt)
	}
}

// TestRenderPatchedRetainedHeap pins what a cut costs in memory at the
// live benchmark's scale (10k sites, 128 B packets): every single-move cut
// shares the previous generation's data-CRC table and adds only its index
// CRCs to the cycle, so the heap each retained generation pins — arena,
// index packets, schedule, subdivision — stays bounded. The bound is 4.5
// MiB per cut; rendered frame slabs, m index copies per cut, retained
// 7.4 MiB per cut on this setup.
func TestRenderPatchedRetainedHeap(t *testing.T) {
	const capacity, cuts = 128, 20
	sw, err := NewSwapper(testArea, testutil.RandomSites(testArea, 10_000, 8501), capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8502))
	// The first cut frees the bootstrap's scratch; measure from the second.
	if _, _, err := sw.Apply(moveOps(rng, sw, 1)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	heap := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC() // and the sync.Pool victim caches
		runtime.ReadMemStats(ms)
	}
	heap(&before)
	for cut := 0; cut < cuts; cut++ {
		prev := sw.Program()
		if _, _, err := sw.Apply(moveOps(rng, sw, 1)); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if next := sw.Program(); !sharesDataCRC(prev.rendered, next.rendered) {
			t.Fatalf("cut %d: data-CRC table not shared (m %d -> %d, index packets %d -> %d)",
				cut, prev.Sched.M, next.Sched.M, prev.Sched.IndexPackets, next.Sched.IndexPackets)
		}
	}
	heap(&after)
	runtime.KeepAlive(sw)
	perCut := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / cuts / (1 << 20)
	t.Logf("retained heap per cut: %.2f MiB", perCut)
	if perCut > 4.5 {
		t.Fatalf("each cut retains %.2f MiB, bound 4.5 MiB", perCut)
	}
}

// TestIncrementalCutMatchesFromScratch pins the whole incremental pipeline
// per generation: the published program and flat arena equal a from-scratch
// CompileDTree of the generation's own subdivision, byte for byte.
func TestIncrementalCutMatchesFromScratch(t *testing.T) {
	const capacity = 256
	sites := testutil.RandomSites(testArea, 60, 8201)
	sw, err := NewSwapper(testArea, sites, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8202))
	for step := 0; step < 8; step++ {
		if _, _, err := sw.Apply(randomOps(rng, sw, 1+rng.Intn(3))); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g := sw.Current()
		want, wantFP, err := CompileDTree(g.Sub, capacity, sw.comp.ch.M)
		if err != nil {
			t.Fatalf("step %d: scratch compile: %v", step, err)
		}
		requireProgramsIdentical(t, "cut", g.Prog, want)
		if !bytes.Equal(g.Flat.Snapshot(), wantFP.Snapshot()) {
			t.Fatalf("step %d: incremental arena snapshot differs from scratch", step)
		}
	}
}

// TestSwapperLongHorizonIncrementalIdentity is the long-horizon property
// test of the issue: hundreds of random add/remove/move ops stream through
// Apply, and at every generation the incrementally cut program is
// byte-identical (packets, rendered frames, arena snapshot) to a
// from-scratch compile of that generation's ground truth. Run under -race
// this also exercises the cross-generation sharing (splices, arenas,
// rendered frames) for unsynchronized mutation.
func TestSwapperLongHorizonIncrementalIdentity(t *testing.T) {
	const capacity = 256
	ops, checkEvery := 500, 10
	if testing.Short() {
		ops, checkEvery = 120, 6
	}
	sites := testutil.RandomSites(testArea, 80, 8301)
	sw, err := NewSwapper(testArea, sites, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8302))
	applied, gens := 0, 0
	for applied < ops {
		batch := 1 + rng.Intn(8)
		if batch > ops-applied {
			batch = ops - applied
		}
		if _, _, err := sw.Apply(randomOps(rng, sw, batch)); err != nil {
			t.Fatalf("after %d ops: %v", applied, err)
		}
		applied += batch
		gens++
		g := sw.Current()
		// A from-scratch compile per generation is the expensive half of the
		// check; spot-check every few generations and always at the end.
		if gens%checkEvery != 0 && applied < ops {
			// The cheap invariant still runs every generation: the arena the
			// program was rendered from indexes the generation's subdivision.
			if g.Flat.Flat.N != g.Sub.N() {
				t.Fatalf("after %d ops: arena over %d regions, subdivision has %d", applied, g.Flat.Flat.N, g.Sub.N())
			}
			continue
		}
		want, wantFP, err := CompileDTree(g.Sub, capacity, sw.comp.ch.M)
		if err != nil {
			t.Fatalf("after %d ops: scratch compile: %v", applied, err)
		}
		requireProgramsIdentical(t, "long-horizon", g.Prog, want)
		if !bytes.Equal(g.Flat.Snapshot(), wantFP.Snapshot()) {
			t.Fatalf("after %d ops: arena snapshot differs from scratch", applied)
		}
	}
}
