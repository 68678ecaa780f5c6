package stream

import (
	"bytes"
	"sync"
	"testing"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

// sameRendered compares two rendered cycles frame by frame — header bytes
// (pointers, CRC) and payload bytes both.
func sameRendered(t *testing.T, a, b *renderedCycle) {
	t.Helper()
	if a.cycleLen() != b.cycleLen() || a.frameSize != b.frameSize {
		t.Fatalf("cycle geometry differs: %d slots x %d B vs %d slots x %d B",
			a.cycleLen(), a.frameSize, b.cycleLen(), b.frameSize)
	}
	for s := 0; s < a.cycleLen(); s++ {
		fa, fb := a.frame(s), b.frame(s)
		if !bytes.Equal(fa[:headerSize], fb[:headerSize]) {
			t.Fatalf("slot %d: headers differ", s)
		}
		if !bytes.Equal(fa[headerSize:], fb[headerSize:]) {
			t.Fatalf("slot %d: payloads differ", s)
		}
	}
}

// TestSnapshotRestoreByteIdenticalCycle pins the restart contract: a
// program restored from a flat-arena snapshot puts the exact bytes of the
// original compile on the air. The file path, broadcastd's -snapshot-dir,
// is fabric.RestoreSnapshotDir's (TestSnapshotDirRoundTrip, S = 1 included).
func TestSnapshotRestoreByteIdenticalCycle(t *testing.T) {
	const capacity = 256
	sub, _ := testutil.RandomVoronoi(t, 90, 9301)
	prog, fp, err := CompileDTree(sub, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Rendered()
	if err != nil {
		t.Fatal(err)
	}

	rfp, err := core.LoadSnapshot(fp.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ProgramFromFlat(rfp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rfp.Flat.N != fp.Flat.N {
		t.Fatalf("restored %d regions, want %d", rfp.Flat.N, fp.Flat.N)
	}
	got, err := restored.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	sameRendered(t, want, got)
}

// TestSwapperGenerationsFlatMatchesPointer drives the swapper through a
// run of churn batches and checks, for every published generation, that
// the arena the generation serves from agrees bit-for-bit with the arena of
// a D-tree rebuilt from scratch over the same ground truth: same bucket,
// same early-termination packet trace. Queries run concurrently with the next
// Apply so the race detector sees the serving pattern.
func TestSwapperGenerationsFlatMatchesPointer(t *testing.T) {
	const capacity = 256
	sites := testutil.RandomSites(testArea, 50, 9310)
	sw, err := NewSwapper(testArea, sites, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}

	batches := [][]SiteOp{
		{{Kind: OpAdd, P: geom.Pt(5012.5, 4987.25)}, {Kind: OpAdd, P: geom.Pt(123.75, 9876.5)}},
		{{Kind: OpRemove, ID: 7}, {Kind: OpMove, ID: 11, P: geom.Pt(7300.125, 2211.875)}},
		{{Kind: OpAdd, P: geom.Pt(9120.0, 881.5)}, {Kind: OpRemove, ID: 3}, {Kind: OpMove, ID: 20, P: geom.Pt(444.25, 6712.0)}},
	}

	verify := func(g *Generation, seed int64) {
		tree, err := core.Build(g.Sub)
		if err != nil {
			t.Error(err)
			return
		}
		paged, err := tree.Page(wire.DTreeParams(capacity))
		if err != nil {
			t.Error(err)
			return
		}
		fresh := paged.Flatten()
		var trace []int
		for _, p := range testutil.QueryPoints(testArea, 60, seed) {
			wantID, wantTrace := fresh.Locate(p)
			var gotID int
			gotID, trace = g.Flat.LocateInto(p, trace[:0])
			if gotID != wantID {
				t.Errorf("generation %d: served bucket %d, from scratch %d at %v", g.Gen, gotID, wantID, p)
				return
			}
			if len(trace) != len(wantTrace) {
				t.Errorf("generation %d: served trace %v, from scratch %v at %v", g.Gen, trace, wantTrace, p)
				return
			}
			for i := range trace {
				if trace[i] != wantTrace[i] {
					t.Errorf("generation %d: served trace %v, from scratch %v at %v", g.Gen, trace, wantTrace, p)
					return
				}
			}
		}
	}

	var wg sync.WaitGroup
	for i, ops := range batches {
		// Query the current generation's arena while the next batch builds:
		// exactly the server's read pattern during an off-path rebuild.
		g := sw.Current()
		wg.Add(1)
		go func(g *Generation, seed int64) {
			defer wg.Done()
			verify(g, seed)
		}(g, int64(9320+i))
		if _, _, err := sw.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	verify(sw.Current(), 9399)

	// Every remembered generation still verifies after the churn run — the
	// swapper keeps superseded ground truth for late answer verification.
	for gen := uint32(1); gen <= sw.Current().Gen; gen++ {
		g := sw.Generation(gen)
		if g == nil {
			t.Fatalf("generation %d forgotten", gen)
		}
		verify(g, int64(9400+gen))
	}
}
