package fabric

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/stream"
	"airindex/internal/voronoi"
)

// contOracle is the quiescent-fabric ground truth: the global Voronoi
// diagram rebuilt from the mirrored site set the test maintains alongside
// the swapper, with regions addressed by stable global id. It is only
// comparable to a client answer when every channel the client touched
// pinned the swapper's current generation — broadcast swaps land at each
// connection's cycle boundary, so a lightly-tuning client lags legitimately.
type contOracle struct {
	gids []int32
	pts  []geom.Point
	sub  *region.Subdivision
	at   map[int32]int // global id -> oracle region index
}

func newContOracle(t *testing.T, area geom.Rect, mirror map[int]geom.Point) *contOracle {
	t.Helper()
	o := &contOracle{at: make(map[int32]int, len(mirror))}
	ids := make([]int, 0, len(mirror))
	for id := range mirror {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		o.gids = append(o.gids, int32(id))
		o.pts = append(o.pts, mirror[id])
	}
	sub, err := voronoi.Subdivision(area, o.pts)
	if err != nil {
		t.Fatalf("oracle subdivision: %v", err)
	}
	o.sub = sub
	for i, gid := range o.gids {
		o.at[gid] = i
	}
	return o
}

func (o *contOracle) region(p geom.Point) int32 { return o.gids[o.sub.Locate(p)] }

func (o *contOracle) window(w geom.Rect) []int32 {
	var out []int32
	for i, r := range o.sub.Regions {
		if core.RegionIntersectsRect(r.Poly, w) {
			out = append(out, o.gids[i])
		}
	}
	return out
}

func (o *contOracle) knn(p geom.Point, k int) []int32 {
	idx := make([]int, len(o.pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := p.Dist2(o.pts[idx[a]]), p.Dist2(o.pts[idx[b]])
		if da != db {
			return da < db
		}
		return o.gids[idx[a]] < o.gids[idx[b]]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = o.gids[idx[i]]
	}
	return out
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pinnedState is one touched channel's ground truth at the generation the
// client pinned this cycle: the welded clipped subdivision (exact polygon
// geometry, an independent code path from the broadcast table's bisector
// walks), the shard-local -> global id mapping, and the per-region sites.
type pinnedState struct {
	rect  geom.Rect
	sub   *region.Subdivision
	ids   []int
	sites []geom.Point
}

func pinnedStates(t *testing.T, sw *Swapper, gens map[int]uint32) map[int]*pinnedState {
	t.Helper()
	out := make(map[int]*pinnedState, len(gens))
	for ch, gen := range gens {
		g := sw.Generation(ch, gen)
		if g == nil {
			t.Fatalf("channel %d answered under unknown generation %d", ch, gen)
		}
		adj := g.Shard.Flat.Flat.Adjacency()
		if adj == nil {
			t.Fatalf("channel %d generation %d carries no adjacency table", ch, gen)
		}
		out[ch] = &pinnedState{rect: g.Shard.Rect, sub: g.Shard.Sub, ids: g.Shard.IDs, sites: adj.Sites}
	}
	return out
}

// refWindow recomputes the window answer from the pinned per-shard ground
// truth: the union, over channels whose rectangle meets the window, of the
// regions whose clipped polygon intersects it. Valid under any mix of
// pinned generations.
func refWindow(states map[int]*pinnedState, w geom.Rect) []int32 {
	got := make(map[int32]bool)
	for _, s := range states {
		if !s.rect.Intersects(w) {
			continue
		}
		for i, r := range s.sub.Regions {
			if core.RegionIntersectsRect(r.Poly, w) {
				got[int32(s.ids[i])] = true
			}
		}
	}
	out := make([]int32, 0, len(got))
	for gid := range got {
		out = append(out, gid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refKNN replays the client's cross-shard kNN rule against the pinned
// ground truth: radius bound from the home shard's own k nearest, candidate
// collection by clipped-polygon/square intersection, (distance², global id)
// ranking with min-distance dedup, doubling until the k-th cannot be beaten.
func refKNN(states map[int]*pinnedState, allRects []geom.Rect, home int, p geom.Point, k int) []int32 {
	hs := states[home]
	type li struct {
		d2 float64
		i  int
	}
	hl := make([]li, len(hs.sites))
	for i, s := range hs.sites {
		hl[i] = li{p.Dist2(s), i}
	}
	sort.Slice(hl, func(a, b int) bool {
		if hl[a].d2 != hl[b].d2 {
			return hl[a].d2 < hl[b].d2
		}
		return hl[a].i < hl[b].i
	})
	kk := k
	if kk > len(hl) {
		kk = len(hl)
	}
	var r2 float64
	for _, e := range hl[:kk] {
		if e.d2 > r2 {
			r2 = e.d2
		}
	}
	r := math.Sqrt(r2)
	if len(hl) < k || r == 0 {
		if g := math.Max(hs.rect.W(), hs.rect.H()) / 2; g > r {
			r = g
		}
		if r == 0 {
			r = 1
		}
	}
	type cand struct {
		gid int32
		d2  float64
	}
	for {
		wr := geom.Rect{MinX: p.X - r, MinY: p.Y - r, MaxX: p.X + r, MaxY: p.Y + r}
		covered := true
		for _, rc := range allRects {
			if !wr.ContainsRect(rc) {
				covered = false
			}
		}
		best := make(map[int32]float64)
		for _, s := range states {
			if !s.rect.Intersects(wr) {
				continue
			}
			for i, rg := range s.sub.Regions {
				if core.RegionIntersectsRect(rg.Poly, wr) {
					gid := int32(s.ids[i])
					d2 := p.Dist2(s.sites[i])
					if od, ok := best[gid]; !ok || d2 < od {
						best[gid] = d2
					}
				}
			}
		}
		ranked := make([]cand, 0, len(best))
		for gid, d2 := range best {
			ranked = append(ranked, cand{gid, d2})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].d2 != ranked[j].d2 {
				return ranked[i].d2 < ranked[j].d2
			}
			return ranked[i].gid < ranked[j].gid
		})
		if len(ranked) > k && !covered && ranked[k-1].d2 > r*r {
			ranked = ranked[:k] // keep only provable entries below; fallthrough to doubling
		}
		if len(ranked) >= k && (covered || ranked[k-1].d2 <= r*r) {
			ids := make([]int32, k)
			for i := range ids {
				ids[i] = ranked[i].gid
			}
			return ids
		}
		if covered {
			ids := make([]int32, len(ranked))
			for i := range ids {
				ids[i] = ranked[i].gid
			}
			return ids
		}
		r *= 2
	}
}

// verifyContCycle checks one cycle against the pinned per-generation ground
// truth (always applicable) and, when every touched channel pinned the
// swapper's current generation, additionally against the global mirror
// oracle. Reports whether the strong check ran.
func verifyContCycle(t *testing.T, sw *Swapper, sess *Continuous, o *contOracle, q stream.ContinuousQuery, p geom.Point, out ContCycle, capacity int) bool {
	t.Helper()
	states := pinnedStates(t, sw, out.Gens)
	hs, ok := states[out.Home]
	if !ok {
		t.Fatalf("cycle %d: home channel %d not among touched channels %v", out.Cycle, out.Home, out.Gens)
	}
	// Region: the home shard's pinned subdivision must agree (boundary
	// points may land in any incident region).
	want := hs.sub.Locate(p)
	if int32(hs.ids[want]) != out.Region {
		at := -1
		for i, gid := range hs.ids {
			if int32(gid) == out.Region {
				at = i
				break
			}
		}
		if at < 0 || !hs.sub.Regions[at].Poly.Contains(p) {
			t.Fatalf("cycle %d: region %d, pinned ground truth %d at %v", out.Cycle, out.Region, hs.ids[want], p)
		}
	}
	if q.WindowW > 0 || q.WindowH > 0 {
		if want := refWindow(states, q.Window(p)); !equalI32(out.Window, want) {
			t.Fatalf("cycle %d: window %v, pinned ground truth %v (gens %v)", out.Cycle, out.Window, want, out.Gens)
		}
	}
	allRects := make([]geom.Rect, sw.Shards())
	for ch := range allRects {
		allRects[ch] = sw.Current(ch).Shard.Rect
	}
	if q.K > 0 {
		if want := refKNN(states, allRects, out.Home, p, q.K); !equalI32(out.KNN, want) {
			t.Fatalf("cycle %d: knn %v, pinned ground truth %v (gens %v)", out.Cycle, out.KNN, want, out.Gens)
		}
	}
	// Cached buckets on every touched channel must verify against the
	// generation that channel pinned, and every answer id must be cached on
	// at least one touched channel.
	cached := make(map[int32]bool)
	for ch, gen := range out.Gens {
		g := sw.Generation(ch, gen)
		for local, data := range sess.ChannelBuckets(ch) {
			if local < 0 || local >= len(g.Shard.IDs) {
				t.Fatalf("cycle %d: channel %d caches bucket %d outside generation %d", out.Cycle, ch, local, gen)
			}
			if err := stream.VerifyStampedData(data, capacity, local); err != nil {
				t.Fatalf("cycle %d: channel %d bucket %d: %v", out.Cycle, ch, local, err)
			}
			gid, err := GlobalIDFromData(data)
			if err != nil {
				t.Fatalf("cycle %d: channel %d bucket %d: %v", out.Cycle, ch, local, err)
			}
			if want := g.Shard.IDs[local]; gid != want {
				t.Fatalf("cycle %d: channel %d bucket %d stamps global %d, generation table says %d", out.Cycle, ch, local, gid, want)
			}
			cached[int32(gid)] = true
		}
	}
	check := append(append([]int32{out.Region}, out.Window...), out.KNN...)
	for _, gid := range check {
		if !cached[gid] {
			t.Fatalf("cycle %d: answer region %d has no cached bucket", out.Cycle, gid)
		}
	}
	if out.Res.TotalTuning() <= 0 || out.Res.Latency <= 0 {
		t.Fatalf("cycle %d: implausible accounting %+v", out.Cycle, out.Res)
	}
	n := 0
	for _, b := range []bool{out.Revalidated, out.Crossed, out.Refreshed} {
		if b {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("cycle %d: classification not exclusive: %+v", out.Cycle, out)
	}
	// Strong check: when every touched channel is current, the composed
	// answer must equal the from-scratch global oracle.
	for ch, gen := range out.Gens {
		if sw.Current(ch).Gen != gen {
			return false
		}
	}
	if wantR := o.region(p); out.Region != wantR {
		if i, ok := o.at[out.Region]; !ok || !o.sub.Regions[i].Poly.Contains(p) {
			t.Fatalf("cycle %d: region %d, global oracle %d at %v", out.Cycle, out.Region, wantR, p)
		}
	}
	if q.WindowW > 0 || q.WindowH > 0 {
		if wantW := o.window(q.Window(p)); !equalI32(out.Window, wantW) {
			t.Fatalf("cycle %d: window %v, global oracle %v", out.Cycle, out.Window, wantW)
		}
	}
	if q.K > 0 {
		if wantK := o.knn(p, q.K); !equalI32(out.KNN, wantK) {
			t.Fatalf("cycle %d: knn %v, global oracle %v", out.Cycle, out.KNN, wantK)
		}
	}
	return true
}

// applyMirrored drives one churn batch through the swapper and keeps the
// test's mirror of the live site set exact (shortened batches included).
func applyMirrored(t *testing.T, sw *Swapper, mirror map[int]geom.Point, ops []stream.SiteOp) {
	t.Helper()
	_, ids, err := sw.Apply(ops)
	if err != nil {
		t.Fatalf("churn: %v", err)
	}
	for i, id := range ids {
		switch ops[i].Kind {
		case stream.OpAdd, stream.OpMove:
			mirror[id] = ops[i].P
		case stream.OpRemove:
			delete(mirror, id)
		}
	}
}

// TestFabricAdjacencyOneShot checks that one-shot queries still resolve on
// an adjacency-carrying fabric: the client discovers the appendix length
// from the air and descends behind it, on both the resume and hop paths.
func TestFabricAdjacencyOneShot(t *testing.T) {
	ds := dataset.Uniform(150, 61)
	const capacity = 128
	sub, err := voronoi.Subdivision(ds.Area, ds.Sites)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(ds.Area, ds.Sites, 3, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	srvs := startFabricServers(t, f.Programs(), func(ch int, srv *stream.Server) {
		srv.StartSlot = func() int { return 0 }
	})
	c := NewClient(fabricAddrs(srvs), capacity)
	defer c.Close()

	rng := rand.New(rand.NewSource(62))
	hops := 0
	for i := 0; i < 24; i++ {
		p := randomPoint(rng, ds.Area)
		entry := rng.Intn(3)
		res, err := c.QueryFrom(p, entry)
		if err != nil {
			t.Fatalf("query %d (%v from channel %d): %v", i, p, entry, err)
		}
		want := sub.Locate(p)
		if res.Global != want && !sub.Regions[res.Global].Poly.Contains(p) {
			t.Fatalf("query %d: %v -> global %d, ground truth %d", i, p, res.Global, want)
		}
		if err := stream.VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.TuneRecover != 0 || res.EpochRestarts != 0 {
			t.Fatalf("query %d: recovery on a perfect channel: %+v", i, res)
		}
		hops += res.Hops
	}
	if hops == 0 {
		t.Fatal("no query hopped; the test exercised only one channel")
	}
}

// TestFabricContinuousOracleUnderChurn is the sharded continuous gate: a
// moving client holds a standing window+kNN query over a 3-channel
// adjacency fabric while site churn drives per-shard generation swaps
// between cycles. Every cycle is verified against the exact per-channel
// generations the client pinned (swaps surface at each connection's cycle
// boundary, so sessions lag legitimately); cycles where every touched
// channel is current are additionally pinned to a from-scratch global
// Voronoi oracle over the mirrored site set. An independent fresh-mode
// session re-acquiring everything each cycle must stay cheaper to beat.
func TestFabricContinuousOracleUnderChurn(t *testing.T) {
	ds := dataset.Uniform(120, 71)
	const (
		capacity = 128
		S        = 3
		cycles   = 36
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	srvs := startFabricServers(t, sw.Programs(), func(ch int, srv *stream.Server) {
		srv.StartSlot = func() int { return 0 }
	})
	for ch, srv := range srvs {
		sw.Bind(ch, srv)
	}

	mirror := make(map[int]geom.Point, len(ds.Sites))
	for i, p := range ds.Sites {
		mirror[i] = p
	}

	q := stream.ContinuousQuery{WindowW: 2600, WindowH: 1800, K: 4}
	newSession := func(mode stream.ContinuousMode) *Continuous {
		fc := NewClient(fabricAddrs(srvs), capacity)
		t.Cleanup(func() { fc.Close() }) //nolint:errcheck
		sess := NewContinuous(fc, mode, q)
		sess.Metrics = stream.NewContinuousMetrics()
		return sess
	}
	inc := newSession(stream.ModeIncremental)
	fresh := newSession(stream.ModeFresh)

	traj := dataset.RandomWaypoint(ds.Area, cycles, 8101, 250, 700)
	rng := rand.New(rand.NewSource(8102))
	var incTune, freshTune, strong int
	for cycle := 0; cycle < cycles; cycle++ {
		p := traj.At(cycle)
		oi, err := inc.Step(p)
		if err != nil {
			t.Fatalf("cycle %d incremental: %v", cycle, err)
		}
		of, err := fresh.Step(p)
		if err != nil {
			t.Fatalf("cycle %d fresh: %v", cycle, err)
		}
		o := newContOracle(t, ds.Area, mirror)
		if verifyContCycle(t, sw, inc, o, q, p, oi, capacity) {
			strong++
		}
		verifyContCycle(t, sw, fresh, o, q, p, of, capacity)
		if !of.Refreshed {
			t.Fatalf("cycle %d: fresh mode did not refresh: %+v", cycle, of)
		}
		// When both sessions pinned identical generations everywhere, their
		// answers must agree bit-for-bit regardless of churn.
		same := len(oi.Gens) == len(of.Gens)
		for ch, g := range oi.Gens {
			if fg, ok := of.Gens[ch]; !ok || fg != g {
				same = false
			}
		}
		if same && (oi.Region != of.Region || !equalI32(oi.Window, of.Window) || !equalI32(oi.KNN, of.KNN)) {
			t.Fatalf("cycle %d: same pinned generations, incremental %d/%v/%v, fresh %d/%v/%v",
				cycle, oi.Region, oi.Window, oi.KNN, of.Region, of.Window, of.KNN)
		}
		incTune += oi.Res.TotalTuning()
		freshTune += of.Res.TotalTuning()

		// Churn every third cycle, quiescing before the next step so the
		// per-generation ground truth stays pinned; the in-between cycles
		// earn revalidation hits.
		if cycle%3 == 2 {
			live := make([]int, 0, len(mirror))
			for id := range mirror {
				live = append(live, id)
			}
			sort.Ints(live)
			ops := []stream.SiteOp{
				{Kind: stream.OpMove, ID: live[rng.Intn(len(live))], P: randomPoint(rng, ds.Area)},
			}
			if len(live) < len(ds.Sites)+5 {
				ops = append(ops, stream.SiteOp{Kind: stream.OpAdd, P: randomPoint(rng, ds.Area)})
			}
			if len(live) > len(ds.Sites)-5 {
				victim := live[rng.Intn(len(live))]
				if victim != ops[0].ID {
					ops = append(ops, stream.SiteOp{Kind: stream.OpRemove, ID: victim})
				}
			}
			applyMirrored(t, sw, mirror, ops)
		}
	}

	im, fm := inc.Metrics, fresh.Metrics
	if im.RevalidationHits.Load() == 0 {
		t.Fatal("incremental session never revalidated from cache")
	}
	if got, want := im.RevalidationHits.Load()+im.BoundaryRedescents.Load()+im.FullRefreshes.Load(), im.Cycles.Load(); got != want {
		t.Fatalf("cycle classification leak: %d classified of %d cycles", got, want)
	}
	if fm.FullRefreshes.Load() != int64(cycles) {
		t.Fatalf("fresh session refreshed %d of %d cycles", fm.FullRefreshes.Load(), cycles)
	}
	if strong == 0 {
		t.Fatal("no cycle ran the strong global-oracle check; sessions never caught up to the current generations")
	}
	if incTune >= freshTune {
		t.Fatalf("incremental tuning %d not below fresh %d", incTune, freshTune)
	}
	t.Logf("fabric continuous: tuning incremental %d, fresh %d (%.1fx); hits=%d redescents=%d refreshes=%d; strong-oracle cycles %d/%d",
		incTune, freshTune, float64(freshTune)/float64(incTune),
		im.RevalidationHits.Load(), im.BoundaryRedescents.Load(), im.FullRefreshes.Load(), strong, cycles)
}
