package main

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"

	"airindex/internal/core"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/stream"
)

// pointAnswer is one point query's answer, kept for verification after the
// measured window (generations stay resolvable through the swapper).
type pointAnswer struct {
	p      geom.Point
	bucket int
	gen    uint32
}

// verifyPoint checks an answer against the ground truth of the generation
// it was resolved under: the bucket's region polygon must contain the point
// (boundary points belong to every incident region, so this accepts
// exactly Sub.Locate's answer and its ties).
func verifyPoint(sw *stream.Swapper, a pointAnswer) error {
	g := sw.Generation(a.gen)
	if g == nil {
		return fmt.Errorf("answer under unknown generation %d", a.gen)
	}
	if a.bucket < 0 || a.bucket >= g.Sub.N() {
		return fmt.Errorf("bucket %d outside generation %d's %d regions", a.bucket, a.gen, g.Sub.N())
	}
	if g.Sub.Regions[a.bucket].Poly.Contains(a.p) {
		return nil
	}
	return fmt.Errorf("point %v: bucket %d, generation %d ground truth %d", a.p, a.bucket, a.gen, g.Sub.Locate(a.p))
}

// stepAnswer is one continuous step's answer with the per-channel
// generations it pinned, the answer buckets the session cached on every
// touched channel right after the step, and how many of the step's
// revalidated/crossed/refreshed flags were set.
type stepAnswer struct {
	p       geom.Point
	home    int
	region  int32
	window  []int32
	knn     []int32
	gens    map[int]uint32
	buckets map[int]map[int][]byte
	classes int
}

// newStepAnswer snapshots a step's answer and the session's cached buckets
// (the payload slices are never written after download, so a shallow copy
// of the maps keeps them).
func newStepAnswer(p geom.Point, sess *fabric.Continuous, out fabric.ContCycle) stepAnswer {
	a := stepAnswer{p: p, home: out.Home, region: out.Region, window: out.Window, knn: out.KNN, gens: out.Gens,
		buckets: make(map[int]map[int][]byte, len(out.Gens))}
	for ch := range out.Gens {
		a.buckets[ch] = maps.Clone(sess.ChannelBuckets(ch))
	}
	for _, b := range []bool{out.Revalidated, out.Crossed, out.Refreshed} {
		if b {
			a.classes++
		}
	}
	return a
}

// pinned is one touched channel's ground truth at the generation the step
// pinned: the shard's welded clipped subdivision, its local -> global id
// map and its per-region sites.
type pinned struct {
	rect  geom.Rect
	sub   *region.Subdivision
	ids   []int
	sites []geom.Point
}

func pinnedStates(sw *fabric.Swapper, gens map[int]uint32) (map[int]*pinned, error) {
	out := make(map[int]*pinned, len(gens))
	for ch, gen := range gens {
		g := sw.Generation(ch, gen)
		if g == nil {
			return nil, fmt.Errorf("channel %d answered under unknown generation %d", ch, gen)
		}
		adj := g.Shard.Flat.Flat.Adjacency()
		if adj == nil {
			return nil, fmt.Errorf("channel %d generation %d carries no adjacency table", ch, gen)
		}
		out[ch] = &pinned{rect: g.Shard.Rect, sub: g.Shard.Sub, ids: g.Shard.IDs, sites: adj.Sites}
	}
	return out, nil
}

// verifyCachedBuckets checks that every bucket the session cached on a
// touched channel after the step is the stamped bucket of the generation
// that channel pinned, that every answer id is cached on some touched
// channel, and that the step was classified exactly once.
func verifyCachedBuckets(sw *fabric.Swapper, a stepAnswer, capacity int) error {
	cached := make(map[int32]bool)
	for ch, gen := range a.gens {
		g := sw.Generation(ch, gen)
		if g == nil {
			return fmt.Errorf("channel %d answered under unknown generation %d", ch, gen)
		}
		for local, data := range a.buckets[ch] {
			if local < 0 || local >= len(g.Shard.IDs) {
				return fmt.Errorf("channel %d caches bucket %d outside generation %d", ch, local, gen)
			}
			if err := stream.VerifyStampedData(data, capacity, local); err != nil {
				return fmt.Errorf("channel %d bucket %d: %w", ch, local, err)
			}
			gid, err := fabric.GlobalIDFromData(data)
			if err != nil {
				return fmt.Errorf("channel %d bucket %d: %w", ch, local, err)
			}
			if want := g.Shard.IDs[local]; gid != want {
				return fmt.Errorf("channel %d bucket %d stamps global %d, generation %d says %d", ch, local, gid, gen, want)
			}
			cached[int32(gid)] = true
		}
	}
	for _, gid := range append(append([]int32{a.region}, a.window...), a.knn...) {
		if !cached[gid] {
			return fmt.Errorf("answer region %d has no cached bucket", gid)
		}
	}
	if a.classes != 1 {
		return fmt.Errorf("step classified %d times, want exactly once", a.classes)
	}
	return nil
}

// verifyStep checks a step's region, window and kNN answers against a
// brute-force oracle over the pinned generations: the home shard's
// subdivision for the region, every pinned shard's clipped polygons for
// the window, and the sites of the pinned shards ranked by (distance²,
// global id) under the client's cross-shard candidate rule for kNN.
func verifyStep(sw *fabric.Swapper, q stream.ContinuousQuery, rects []geom.Rect, a stepAnswer) error {
	states, err := pinnedStates(sw, a.gens)
	if err != nil {
		return err
	}
	hs, ok := states[a.home]
	if !ok {
		return fmt.Errorf("home channel %d not among touched channels %v", a.home, a.gens)
	}
	if want := hs.sub.Locate(a.p); want < 0 || int32(hs.ids[want]) != a.region {
		at := -1
		for i, gid := range hs.ids {
			if int32(gid) == a.region {
				at = i
				break
			}
		}
		if at < 0 || !hs.sub.Regions[at].Poly.Contains(a.p) {
			return fmt.Errorf("point %v: region %d, pinned ground truth %d", a.p, a.region, want)
		}
	}
	if q.WindowW > 0 || q.WindowH > 0 {
		if want := refWindow(states, q.Window(a.p)); !equalIDs(a.window, want) {
			return fmt.Errorf("point %v: window %v, pinned ground truth %v (gens %v)", a.p, a.window, want, a.gens)
		}
	}
	if q.K > 0 {
		if want := refKNN(states, rects, a.home, a.p, q.K); !equalIDs(a.knn, want) {
			return fmt.Errorf("point %v (home %d): knn %v, pinned ground truth %v (gens %v); %s",
				a.p, a.home, a.knn, want, a.gens, describeIDs(states, a.p, append(append([]int32(nil), a.knn...), want...)))
		}
	}
	return nil
}

// describeIDs lists, for each distinct global id, its site distance from p
// and the channels holding a piece of its region, for a mismatch report.
func describeIDs(states map[int]*pinned, p geom.Point, ids []int32) string {
	seen := make(map[int32]bool)
	var out []string
	for _, gid := range ids {
		if seen[gid] {
			continue
		}
		seen[gid] = true
		d := math.Inf(1)
		var chans []int
		for ch, s := range states {
			for i, id := range s.ids {
				if int32(id) == gid {
					d = math.Min(d, math.Sqrt(p.Dist2(s.sites[i])))
					chans = append(chans, ch)
				}
			}
		}
		sort.Ints(chans)
		out = append(out, fmt.Sprintf("%d at %.6f on channels %v", gid, d, chans))
	}
	return strings.Join(out, ", ")
}

func equalIDs(a, b []int32) bool {
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

// refWindow is the union, over pinned channels whose rectangle meets w, of
// the regions whose clipped polygon intersects w, ascending.
func refWindow(states map[int]*pinned, w geom.Rect) []int32 {
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

// refKNN ranks by brute force: a radius bound from the home shard's own k
// nearest sites, every pinned region whose clipped polygon meets the
// square of that half-width as a candidate (min distance per global id),
// and doubling until the k-th candidate provably cannot be beaten or the
// square covers every shard.
func refKNN(states map[int]*pinned, allRects []geom.Rect, home int, p geom.Point, k int) []int32 {
	hs := states[home]
	d2s := make([]float64, len(hs.sites))
	for i, s := range hs.sites {
		d2s[i] = p.Dist2(s)
	}
	sort.Float64s(d2s)
	kk := k
	if kk > len(d2s) {
		kk = len(d2s)
	}
	var r2 float64
	if kk > 0 {
		r2 = d2s[kk-1]
	}
	r := math.Sqrt(r2)
	if len(d2s) < k || r == 0 {
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
