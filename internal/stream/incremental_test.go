package stream

import (
	"bytes"
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
)

// requireProgramsIdentical asserts two programs put byte-identical cycles
// on the air: same encoded index packets and same rendered frame table.
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
	for pos := range grc.frames {
		g, w := &grc.frames[pos], &wrc.frames[pos]
		if g.hdr != w.hdr {
			t.Fatalf("%s: frame %d header differs", label, pos)
		}
		if !bytes.Equal(g.payload, w.payload) {
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

// TestRenderPatchedMatchesRenderCycle pins the incremental render path: the
// frame table a cut builds by patching the previous generation's is
// byte-identical to a cold renderCycle of the same program.
func TestRenderPatchedMatchesRenderCycle(t *testing.T) {
	const capacity = 256
	sites := testutil.RandomSites(testArea, 70, 8101)
	sw, err := NewSwapper(testArea, sites, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8102))
	for step := 0; step < 6; step++ {
		if _, _, err := sw.Apply(randomOps(rng, sw, 1+rng.Intn(4))); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g := sw.Current()
		// Re-render the same program cold, bypassing the patched table.
		cold := &Program{
			Capacity:     g.Prog.Capacity,
			IndexPackets: g.Prog.IndexPackets,
			Sched:        g.Prog.Sched,
			Data:         g.Prog.Data,
		}
		requireProgramsIdentical(t, "step", g.Prog, cold)
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
