package core

import (
	"bytes"
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/testutil"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

// churnDriver evolves a Voronoi tiling through a Maintainer + Patcher and
// hands each generation's subdivision and canonical dirty set to a test.
type churnDriver struct {
	t     *testing.T
	maint *voronoi.Maintainer
	patch *region.Patcher
	rng   *rand.Rand
	area  geom.Rect
}

func newChurnDriver(t *testing.T, nSites int, seed int64) (*churnDriver, *region.Subdivision) {
	t.Helper()
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(seed))
	sites := make([]geom.Point, nSites)
	for i := range sites {
		sites[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return newChurnDriverAt(t, area, sites, rng)
}

// newChurnDriverAt starts a churn driver over the given sites; its ops draw
// uniform points in area from rng.
func newChurnDriverAt(t *testing.T, area geom.Rect, sites []geom.Point, rng *rand.Rand) (*churnDriver, *region.Subdivision) {
	t.Helper()
	maint, err := voronoi.NewMaintainer(area, sites)
	if err != nil {
		t.Fatalf("maintainer: %v", err)
	}
	d := &churnDriver{t: t, maint: maint, patch: region.NewPatcher(area), rng: rng, area: area}
	ids, polys := maint.LiveCells()
	sub, _, err := d.patch.Patch(ids, polys, ids, nil)
	if err != nil {
		t.Fatalf("bootstrap patch: %v", err)
	}
	return d, sub
}

// point draws a uniform point in the driver's area.
func (d *churnDriver) point() geom.Point {
	return geom.Pt(d.area.MinX+d.rng.Float64()*d.area.W(), d.area.MinY+d.rng.Float64()*d.area.H())
}

// step applies a batch of random ops and returns the patched subdivision
// with its canonical dirty keys.
func (d *churnDriver) step(batch int) (*region.Subdivision, []int) {
	d.t.Helper()
	d.maint.BeginBatch()
	for i := 0; i < batch; i++ {
		ids, _ := d.maint.LiveSites()
		switch op := d.rng.Intn(3); {
		case op == 0 || len(ids) < 5:
			if _, err := d.maint.Add(d.point()); err != nil {
				d.t.Fatalf("add: %v", err)
			}
		case op == 1:
			if err := d.maint.Remove(ids[d.rng.Intn(len(ids))]); err != nil {
				d.t.Fatalf("remove: %v", err)
			}
		default:
			id := ids[d.rng.Intn(len(ids))]
			if _, err := d.maint.Move(id, d.point()); err != nil {
				d.t.Fatalf("move: %v", err)
			}
		}
	}
	dirty, removed := d.maint.BatchDelta()
	ids, polys := d.maint.LiveCells()
	sub, canonDirty, err := d.patch.Patch(ids, polys, dirty, removed)
	if err != nil {
		d.t.Fatalf("patch: %v", err)
	}
	return sub, canonDirty
}

// stepMoves applies a batch of pure position updates — the steady-state
// churn shape, under which the site count and the style menu stay fixed.
func (d *churnDriver) stepMoves(batch int) (*region.Subdivision, []int) {
	d.t.Helper()
	d.maint.BeginBatch()
	for i := 0; i < batch; i++ {
		ids, _ := d.maint.LiveSites()
		id := ids[d.rng.Intn(len(ids))]
		if _, err := d.maint.Move(id, d.point()); err != nil {
			d.t.Fatalf("move: %v", err)
		}
	}
	dirty, removed := d.maint.BatchDelta()
	ids, polys := d.maint.LiveCells()
	sub, canonDirty, err := d.patch.Patch(ids, polys, dirty, removed)
	if err != nil {
		d.t.Fatalf("patch: %v", err)
	}
	return sub, canonDirty
}

// TestIncrementalRebuildMatchesBuild pins the tentpole identity: across a
// churn sequence, every incremental Rebuild marshals byte-identical to a
// from-scratch Build of the same subdivision, while splicing a substantial
// share of the tree.
func TestIncrementalRebuildMatchesBuild(t *testing.T) {
	// Seeds 4 and 5 start from testutil.DegenerateSites (a lattice and a
	// diagonal), whose regions tie on sort keys: byte identity must hold
	// where the id tie-break decides the orders.
	for _, in := range []struct {
		seed       int64
		degenerate bool
	}{{3, false}, {11, false}, {77, false}, {4, true}, {5, true}} {
		seed := in.seed
		var d *churnDriver
		var sub *region.Subdivision
		if in.degenerate {
			d, sub = newChurnDriverAt(t, testutil.BigArea, testutil.DegenerateSites(48, seed), rand.New(rand.NewSource(seed+100)))
		} else {
			d, sub = newChurnDriver(t, 48, seed)
		}
		inc := NewIncremental()
		full, err := inc.Full(sub)
		if err != nil {
			t.Fatalf("full build: %v", err)
		}
		params := wire.DTreeParams(128)
		prevFlat := full.Flatten(params)
		var spliced, total int
		for step := 0; step < 20; step++ {
			batch := 1 + d.rng.Intn(3)
			next, canonDirty := d.step(batch)
			got, delta, err := inc.Rebuild(next, canonDirty)
			if err != nil {
				t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
			}
			want, err := Build(next)
			if err != nil {
				t.Fatalf("seed %d step %d: scratch build: %v", seed, step, err)
			}
			gb, err := got.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			wb, err := want.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("seed %d step %d (batch %d, %d dirty): incremental marshal differs from scratch",
					seed, step, batch, len(canonDirty))
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if delta.Total != len(got.Nodes) || delta.Spliced+delta.Fresh != delta.Total {
				t.Fatalf("seed %d step %d: inconsistent delta %+v for %d nodes", seed, step, delta, len(got.Nodes))
			}
			spliced += delta.Spliced
			total += delta.Total

			// The patched arena must equal a full Flatten of the same tree
			// slab-for-slab (the packet encoder serializes these fields).
			pf := got.flatten(prevFlat, params)
			ff := want.Flatten(params)
			if len(pf.nodes) != len(ff.nodes) || len(pf.polys) != len(ff.polys) || len(pf.pts) != len(ff.pts) {
				t.Fatalf("seed %d step %d: patched arena shape (%d,%d,%d) != full (%d,%d,%d)",
					seed, step, len(pf.nodes), len(pf.polys), len(pf.pts), len(ff.nodes), len(ff.polys), len(ff.pts))
			}
			for i := range pf.nodes {
				if pf.nodes[i] != ff.nodes[i] {
					t.Fatalf("seed %d step %d: patched arena node %d differs", seed, step, i)
				}
			}
			for i := range pf.polys {
				if pf.polys[i] != ff.polys[i] {
					t.Fatalf("seed %d step %d: patched arena span %d differs", seed, step, i)
				}
			}
			for i := range pf.pts {
				if pf.pts[i] != ff.pts[i] {
					t.Fatalf("seed %d step %d: patched arena point %d differs", seed, step, i)
				}
			}
			prevFlat = pf
		}
		// At this tiny scale an op's neighbor fan-out dirties a third of all
		// regions, so splice coverage is modest; the large-scale benchmark
		// pins the >90% rates that matter for cut latency.
		if total > 0 && spliced*8 < total {
			t.Errorf("seed %d: spliced only %d of %d nodes across the run — incremental path not engaging", seed, spliced, total)
		}
	}
}

// TestIncrementalFullMatchesBuild pins that Full is exactly Build.
func TestIncrementalFullMatchesBuild(t *testing.T) {
	_, sub := newChurnDriver(t, 30, 5)
	inc := NewIncremental()
	got, err := inc.Full(sub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := got.Marshal()
	wb, _ := want.Marshal()
	if !bytes.Equal(gb, wb) {
		t.Fatal("Full marshal differs from Build")
	}
}

// diffNode reports the first structural difference between two trees; a
// diagnostic for identity failures.
func diffNode(t *testing.T, a, b *Node, depth int) bool {
	if (a == nil) != (b == nil) {
		t.Logf("depth %d: nil mismatch", depth)
		return true
	}
	if a == nil {
		return false
	}
	if a.Dim != b.Dim || a.CutLo != b.CutLo || a.CutHi != b.CutHi ||
		a.NumRegions != b.NumRegions || a.InterProb != b.InterProb ||
		a.Pruned != b.Pruned || a.Truncated != b.Truncated ||
		len(a.Polylines) != len(b.Polylines) {
		t.Logf("depth %d n=%d: got dim=%v lo=%v hi=%v ip=%v plines=%d pr=%v tr=%v | want dim=%v lo=%v hi=%v ip=%v plines=%d pr=%v tr=%v",
			depth, b.NumRegions,
			a.Dim, a.CutLo, a.CutHi, a.InterProb, len(a.Polylines), a.Pruned, a.Truncated,
			b.Dim, b.CutLo, b.CutHi, b.InterProb, len(b.Polylines), b.Pruned, b.Truncated)
		return true
	}
	if !a.Left.IsData() || !b.Left.IsData() {
		if a.Left.IsData() != b.Left.IsData() {
			t.Logf("depth %d n=%d: left data mismatch", depth, a.NumRegions)
			return true
		}
		if diffNode(t, a.Left.Node, b.Left.Node, depth+1) {
			return true
		}
	} else if a.Left.Data != b.Left.Data {
		t.Logf("depth %d: left data %d != %d", depth, a.Left.Data, b.Left.Data)
		return true
	}
	if !a.Right.IsData() || !b.Right.IsData() {
		if a.Right.IsData() != b.Right.IsData() {
			t.Logf("depth %d n=%d: right data mismatch", depth, a.NumRegions)
			return true
		}
		return diffNode(t, a.Right.Node, b.Right.Node, depth+1)
	} else if a.Right.Data != b.Right.Data {
		t.Logf("depth %d: right data %d != %d", depth, a.Right.Data, b.Right.Data)
		return true
	}
	return false
}

// TestIncrementalChurnIdentity drives mixed add/remove/move churn with every
// generation's marshal compared against a cold Build. Mixed batches change
// region-count parity, which reshuffles the style menu and flips partition
// winners on dirty paths.
func TestIncrementalChurnIdentity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d, sub := newChurnDriver(t, 400, seed)
		inc := NewIncremental()
		if _, err := inc.Full(sub); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			next, canonDirty := d.step(4)
			got, _, err := inc.Rebuild(next, canonDirty)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			want, err := Build(next)
			if err != nil {
				t.Fatal(err)
			}
			gb, _ := got.Marshal()
			wb, _ := want.Marshal()
			if !bytes.Equal(gb, wb) {
				diffNode(t, got.Root, want.Root, 0)
				t.Fatalf("seed %d step %d: marshal differs", seed, step)
			}
		}
	}
}

// TestIncrementalChurnMoveOnlyIdentity pins the steady-state regime the
// gated benchmark tier measures: move-only batches over a subset large
// enough that near-tied winners flip on dirty paths. A splice lookup that
// stopped matching would still be byte-identical, only slow, so every cut
// must also splice at least a third of its nodes.
func TestIncrementalChurnMoveOnlyIdentity(t *testing.T) {
	d, sub := newChurnDriver(t, 2500, 7)
	inc := NewIncremental()
	if _, err := inc.Full(sub); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		next, canonDirty := d.stepMoves(8)
		got, delta, err := inc.Rebuild(next, canonDirty)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := Build(next)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := got.Marshal()
		wb, _ := want.Marshal()
		if !bytes.Equal(gb, wb) {
			diffNode(t, got.Root, want.Root, 0)
			t.Fatalf("step %d: marshal differs", step)
		}
		if delta.Spliced*3 < delta.Total {
			t.Fatalf("step %d: spliced %d of %d nodes, want at least a third", step, delta.Spliced, delta.Total)
		}
	}
}
