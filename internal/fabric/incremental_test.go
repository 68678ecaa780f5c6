package fabric

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/stream"
)

// randomBatch draws one Apply batch of uniform points against the
// swapper's live ids.
func randomBatch(rng *rand.Rand, sw *Swapper, ds *dataset.Dataset, batch int) []stream.SiteOp {
	return siteBatch(rng, sw, batch, func() geom.Point { return randomPoint(rng, ds.Area) })
}

// siteBatch draws one Apply batch of adds, removes and moves to points
// from point, never reusing an id already removed earlier in the batch.
func siteBatch(rng *rand.Rand, sw *Swapper, batch int, point func() geom.Point) []stream.SiteOp {
	live := sw.LiveSiteIDs()
	ops := make([]stream.SiteOp, 0, batch)
	for i := 0; i < batch; i++ {
		p := point()
		switch op := rng.Intn(3); {
		case op == 0 || len(live) < 8:
			ops = append(ops, stream.SiteOp{Kind: stream.OpAdd, P: p})
		case op == 1:
			k := rng.Intn(len(live))
			ops = append(ops, stream.SiteOp{Kind: stream.OpRemove, ID: live[k]})
			live = append(live[:k], live[k+1:]...)
		default:
			ops = append(ops, stream.SiteOp{Kind: stream.OpMove, ID: live[rng.Intn(len(live))], P: p})
		}
	}
	return ops
}

// requireShardsMatchFresh compares every shard of the swapper against a
// from-scratch fabric build of the live set's raw cells: same bucket
// numbering, byte-identical index packets, byte-identical flat arena
// snapshots.
func requireShardsMatchFresh(t *testing.T, label string, sw *Swapper) {
	t.Helper()
	ids, polys := sw.maint.LiveCells()
	fresh, err := fromCells(ids, polys, sw.dir, sw.rects, sw.capacity, sw.opts, sw.maint.Site, "")
	if err != nil {
		t.Fatalf("%s: fresh build: %v", label, err)
	}
	for ch := range sw.cur {
		cur := sw.Current(ch).Shard
		want := fresh.Shards[ch]
		if len(cur.IDs) != len(want.IDs) {
			t.Fatalf("%s: shard %d: %d buckets incrementally, %d from scratch", label, ch, len(cur.IDs), len(want.IDs))
		}
		for i := range cur.IDs {
			if cur.IDs[i] != want.IDs[i] {
				t.Fatalf("%s: shard %d bucket %d: global %d vs %d", label, ch, i, cur.IDs[i], want.IDs[i])
			}
		}
		if len(cur.Prog.IndexPackets) != len(want.Prog.IndexPackets) {
			t.Fatalf("%s: shard %d: %d index packets incrementally, %d from scratch", label, ch, len(cur.Prog.IndexPackets), len(want.Prog.IndexPackets))
		}
		for k := range cur.Prog.IndexPackets {
			if !bytes.Equal(cur.Prog.IndexPackets[k], want.Prog.IndexPackets[k]) {
				t.Fatalf("%s: shard %d index packet %d differs from a fresh build", label, ch, k)
			}
		}
		if !bytes.Equal(cur.Flat.Snapshot(), want.Flat.Snapshot()) {
			t.Fatalf("%s: shard %d arena snapshot differs from a fresh build", label, ch)
		}
	}
}

// TestSwapperIncrementalEveryGeneration pins the fabric's incremental cut
// pipeline per generation: after every Apply batch, every shard's program
// and arena are byte-identical to a from-scratch fabric build of the live
// set, and untouched shards keep not just their generation number but the
// very same published objects.
func TestSwapperIncrementalEveryGeneration(t *testing.T) {
	ds := dataset.Uniform(140, 61)
	const (
		capacity = 128
		S        = 4
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireShardsMatchFresh(t, "bootstrap", sw)
	rng := rand.New(rand.NewSource(62))
	incremental, skipped := 0, 0
	for batch := 0; batch < 12; batch++ {
		before := make([]*ShardGeneration, S)
		for ch := 0; ch < S; ch++ {
			before[ch] = sw.Current(ch)
		}
		gens, _, err := sw.Apply(randomBatch(rng, sw, &ds, 1+rng.Intn(3)))
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for ch := 0; ch < S; ch++ {
			if gens[ch] == before[ch].Gen {
				skipped++
				if sw.Current(ch) != before[ch] {
					t.Fatalf("batch %d: shard %d kept generation %d but replaced the published object", batch, ch, gens[ch])
				}
			} else if sw.comps[ch].Retained() {
				incremental++
			}
		}
		requireShardsMatchFresh(t, "batch", sw)
	}
	if skipped == 0 {
		t.Error("no shard cut was ever skipped; the dirty-footprint prefilter never fired")
	}
	if incremental == 0 {
		t.Error("no shard was ever rebuilt with retained incremental state")
	}
}

// TestSwapperReconcileAfterStale pins the recovery path: when an Apply is
// marked stale (as a failed rebuild or publish would), the next Apply
// reconciles every shard from a fresh clip scan and converges back to the
// from-scratch build, after which incremental cutting resumes.
func TestSwapperReconcileAfterStale(t *testing.T) {
	ds := dataset.Uniform(120, 71)
	const (
		capacity = 128
		S        = 3
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	if _, _, err := sw.Apply(randomBatch(rng, sw, &ds, 3)); err != nil {
		t.Fatal(err)
	}
	// Simulate a failed batch: the maintainer advanced but nothing was
	// republished and the bounds cache was never updated.
	sw.mu.Lock()
	sw.maint.BeginBatch()
	live, _ := sw.maint.LiveSites()
	if _, err := sw.maint.Move(live[0], randomPoint(rng, ds.Area)); err != nil {
		sw.mu.Unlock()
		t.Fatal(err)
	}
	sw.stale = true
	sw.mu.Unlock()
	// The next Apply must reconcile the missed churn even though its own
	// batch is tiny.
	if _, _, err := sw.Apply(randomBatch(rng, sw, &ds, 1)); err != nil {
		t.Fatal(err)
	}
	requireShardsMatchFresh(t, "reconcile", sw)
	// And the pipeline keeps cutting incrementally afterwards.
	for batch := 0; batch < 4; batch++ {
		if _, _, err := sw.Apply(randomBatch(rng, sw, &ds, 1+rng.Intn(3))); err != nil {
			t.Fatalf("post-reconcile batch %d: %v", batch, err)
		}
	}
	requireShardsMatchFresh(t, "post-reconcile", sw)
}

// moveInside returns a move of the live site nearest rect's center a short
// step further toward it: the site's cell has a piece inside rect before
// and after, so the move is guaranteed to change that shard's clips.
func moveInside(t *testing.T, sw *Swapper, rect geom.Rect) stream.SiteOp {
	t.Helper()
	c := geom.Pt((rect.MinX+rect.MaxX)/2, (rect.MinY+rect.MaxY)/2)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ids, sites := sw.maint.LiveSites()
	best := -1
	for i, p := range sites {
		if rect.Contains(p) && (best < 0 || p.Dist2(c) < sites[best].Dist2(c)) {
			best = i
		}
	}
	if best < 0 {
		t.Fatal("no live site inside the shard rectangle")
	}
	p := sites[best]
	return stream.SiteOp{Kind: stream.OpMove, ID: ids[best], P: geom.Pt(p.X+(c.X-p.X)/2, p.Y+(c.Y-p.Y)/2+rect.H()/100)}
}

// TestSwapperCutFailureKeepsAir drives Apply's failed-cut branch for real:
// one shard's compile fails inside a batch that changes it. No channel may
// publish — every server keeps its generation and every shard its
// published object — and Pending() turns true. An empty Apply then
// reconciles to the from-scratch build, and incremental cuts resume.
func TestSwapperCutFailureKeepsAir(t *testing.T) {
	ds := dataset.Uniform(200, 81)
	const (
		capacity = 128
		S        = 3
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvs := startFabricServers(t, sw.Programs(), func(ch int, srv *stream.Server) { sw.Bind(ch, srv) })
	rng := rand.New(rand.NewSource(82))
	if _, _, err := sw.Apply(randomBatch(rng, sw, &ds, 3)); err != nil {
		t.Fatal(err)
	}
	before := make([]*ShardGeneration, S)
	for ch := range before {
		before[ch] = sw.Current(ch)
		if got := srvs[ch].Generation(); got != before[ch].Gen {
			t.Fatalf("shard %d: server at generation %d, swapper at %d", ch, got, before[ch].Gen)
		}
	}

	injected := errors.New("injected shard cut failure")
	sw.comps[0].FailNext(injected)
	gens, ids, err := sw.Apply([]stream.SiteOp{moveInside(t, sw, sw.rects[0]), {Kind: stream.OpAdd, P: randomPoint(rng, ds.Area)}})
	if !errors.Is(err, injected) {
		t.Fatalf("Apply returned %v, want the injected failure", err)
	}
	if len(ids) != 2 {
		t.Fatalf("failed Apply reported %d applied ops, want 2 (mutations stay)", len(ids))
	}
	if !sw.Pending() {
		t.Fatal("Pending() false after a failed shard cut")
	}
	for ch := 0; ch < S; ch++ {
		if gens[ch] != before[ch].Gen || srvs[ch].Generation() != before[ch].Gen {
			t.Fatalf("shard %d: generation %d reported, %d on the air, want %d kept", ch, gens[ch], srvs[ch].Generation(), before[ch].Gen)
		}
		if sw.Current(ch) != before[ch] {
			t.Fatalf("shard %d: failed batch replaced the published object", ch)
		}
	}

	gens, ids, err = sw.Apply(nil)
	if err != nil {
		t.Fatalf("reconcile Apply: %v", err)
	}
	if len(ids) != 0 {
		t.Fatalf("reconcile applied %d ops, want 0", len(ids))
	}
	if sw.Pending() {
		t.Fatal("Pending() still true after the reconcile")
	}
	if gens[0] != before[0].Gen+1 || srvs[0].Generation() != gens[0] {
		t.Fatalf("shard 0: reconcile published generation %d (%d on the air), want %d", gens[0], srvs[0].Generation(), before[0].Gen+1)
	}
	requireShardsMatchFresh(t, "reconcile", sw)

	if _, _, err := sw.Apply([]stream.SiteOp{moveInside(t, sw, sw.rects[0])}); err != nil {
		t.Fatal(err)
	}
	if p := srvs[0].Metrics().CutDirtyPermille.Load(); p >= 1000 {
		t.Fatalf("post-reconcile cut rebuilt %d permille of shard 0, want an incremental cut", p)
	}
	requireShardsMatchFresh(t, "post-reconcile", sw)
}
