package fabric

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/stream"
)

// Continuous is the moving-client session over a sharded fabric: a standing
// window/kNN query re-evaluated once per broadcast cycle as the client's
// position advances, answered from per-channel caches that are revalidated
// against the air instead of rebuilt.
//
// Every channel the query touches keeps its own cache line: the decoded
// adjacency appendix (which also reveals the shard's clip rectangle), the
// region containing the client's position clamped into that rectangle, and
// the data buckets of the current answer set. A cycle probes only the
// channels whose rectangles meet the standing query, validates each cached
// seed with an exact membership test, and re-descends or re-acquires a
// channel only when its validation fails or its generation moved. The
// channel directory is read off the air once — the partition is fixed for a
// fabric's lifetime — and shard rectangles are learned from the first
// adjacency fetch on each channel (one full sweep on the first cycle). A
// plain single channel is the degenerate case: one cache line and no
// directory, which the session learns from the air (see ensureDirectory).
//
// Cross-shard answers compose from per-shard walks. A window walk runs on
// every channel whose rectangle meets the window, seeded at the region
// containing clamp(p, rect): when p lies in the window, the clamped point
// lies in window∩rect, so the seed's clipped cell meets the window and the
// walk's connectivity argument carries over per shard. kNN derives an upper
// bound r on the k-th nearest distance from the home shard's own k nearest
// (a subset of the global sites), then collects every region whose clipped
// cell meets the square of half-width r — any site within Euclidean r sits
// inside that square, inside its own cell, inside the shard that owns it —
// and ranks candidates by (distance², global id), deduplicating regions
// split across shards by keeping the smallest distance. The square doubles
// until the k-th candidate provably cannot be beaten (or it covers every
// shard). Answers are exact whenever the touched channels agree on a
// generation; during a rolling swap each channel is internally consistent
// with the generation it pinned this cycle, reported per channel in Gens.
//
// Tuning and latency are charged per channel leg from the frames actually
// parsed, then summed — the same discipline Client.QueryFrom applies to
// hops. Directory packets are charged as index tuning. Not safe for
// concurrent use.
type Continuous struct {
	fc   *Client
	mode stream.ContinuousMode
	q    stream.ContinuousQuery

	// Metrics, when set, accumulates cycle-level revalidation-vs-redescent
	// counters and per-cycle cost distributions. Optional; may be shared.
	Metrics *stream.ContinuousMetrics

	cycle  int
	stamp  int // current attempt; a leg with a matching stamp is open
	booted bool

	dir      *Directory
	d        int // directory packets at the head of every index copy
	dirLeg   stream.Result
	dirStamp int

	chans []*contChan
}

// contChan is one channel's cache line plus its per-attempt leg accounting.
type contChan struct {
	genValid  bool
	gen       uint32
	adj       *core.Adjacency
	adjPkts   int
	rect      geom.Rect // the shard's clip rectangle (fixed per fabric)
	rectValid bool
	seed      int // region containing clamp(p, rect), local index
	localOf   map[int32]int
	buckets   map[int][]byte

	stamp     int
	res       stream.Result
	refreshed bool
	crossed   bool
}

// invalidate drops the state pinned to a dead generation. The clip
// rectangle survives: the partition is fixed for the fabric's lifetime.
func (cc *contChan) invalidate() {
	cc.genValid = false
	cc.adj = nil
	cc.adjPkts = 0
	cc.seed = -1
	cc.localOf = nil
	clear(cc.buckets)
}

// ContCycle is one fabric cycle's answer with its cost accounting.
type ContCycle struct {
	Cycle int
	Home  int // channel owning the client's position this cycle

	Region int32   // global id of the containing region
	Window []int32 // global ids of regions meeting the window, ascending
	KNN    []int32 // global ids by (site distance², global id)

	// Gens records the generation each touched channel pinned this cycle.
	Gens map[int]uint32

	// Exactly one of the three is set, classifying the cycle by its most
	// expensive event across channels: every touched channel revalidated
	// from cache, at least one re-descended after a boundary crossing, or
	// at least one re-acquired its appendix (always set in fresh mode).
	Revalidated bool
	Crossed     bool
	Refreshed   bool

	// Res sums the per-channel legs: latency adds each leg's slot span,
	// tuning counters add across channels, with directory packets charged
	// as index tuning. Res.Generation echoes the home channel's; on a
	// single channel Res.Latency spans FirstSlot..LastSlot.
	Res stream.Result
}

// NewContinuous starts a continuous session over a fabric client. The
// client's connections are owned by the caller.
func NewContinuous(fc *Client, mode stream.ContinuousMode, q stream.ContinuousQuery) *Continuous {
	chans := make([]*contChan, fc.Channels())
	for i := range chans {
		chans[i] = &contChan{seed: -1, buckets: make(map[int][]byte)}
	}
	return &Continuous{fc: fc, mode: mode, q: q, chans: chans}
}

// ChannelBuckets exposes one channel's cached answer data, keyed by
// shard-local region id (read-only view; valid for the generation the
// channel last pinned).
func (s *Continuous) ChannelBuckets(ch int) map[int][]byte { return s.chans[ch].buckets }

// Step advances the session one broadcast cycle at position p. A mid-cycle
// generation swap on any touched channel invalidates that channel's cache
// and restarts the cycle (bounded, charged to the same outcome).
func (s *Continuous) Step(p geom.Point) (ContCycle, error) {
	var total stream.Result
	var out ContCycle
	for restart := 0; ; restart++ {
		s.stamp++
		out = ContCycle{Cycle: s.cycle, Gens: make(map[int]uint32)}
		failCh, err := s.stepOnce(p, &out)
		s.foldLegs(&total)
		if err == nil {
			break
		}
		if !errors.Is(err, stream.ErrStaleGeneration) {
			if s.Metrics != nil {
				s.Metrics.CycleErrors.Inc()
			}
			return out, err
		}
		if failCh >= 0 && failCh < len(s.chans) {
			s.chans[failCh].invalidate()
		}
		total.EpochRestarts++
		total.Recoveries++
		total.TuneRecover++
		if restart+1 >= maxRouteAttempts {
			if s.Metrics != nil {
				s.Metrics.CycleErrors.Inc()
			}
			return out, fmt.Errorf("fabric: continuous cycle abandoned after %d epoch restarts", maxRouteAttempts)
		}
	}
	out.Res = total
	if g, ok := out.Gens[out.Home]; ok {
		out.Res.Generation = g
	}
	s.cycle++
	if m := s.Metrics; m != nil {
		m.Cycles.Inc()
		switch {
		case out.Revalidated:
			m.RevalidationHits.Inc()
		case out.Crossed:
			m.BoundaryRedescents.Inc()
		case out.Refreshed:
			m.FullRefreshes.Inc()
		}
		m.EpochRestarts.Add(int64(total.EpochRestarts))
		m.LatencySlots.Observe(int64(total.Latency))
		m.TuningPackets.Observe(int64(total.TotalTuning()))
	}
	return out, nil
}

// stepOnce runs one cycle attempt. On error it names the channel to blame,
// so a stale generation invalidates exactly the cache line that died.
func (s *Continuous) stepOnce(p geom.Point, out *ContCycle) (int, error) {
	entry := s.fc.entry
	if s.dir == nil {
		if err := s.ensureDirectory(entry, p, out); err != nil {
			return entry, err
		}
	}
	// First cycle: sweep every channel once so each reveals its clip
	// rectangle — the client must learn the geography before it can tell
	// which channels a standing query touches.
	if !s.booted {
		for ch := range s.chans {
			if !s.chans[ch].rectValid {
				if _, err := s.ensure(ch, p, out); err != nil {
					return ch, err
				}
			}
		}
		s.booted = true
	}
	home := s.dir.Route(p)
	out.Home = home
	hc, err := s.ensure(home, p, out)
	if err != nil {
		return home, err
	}
	out.Region = hc.adj.GlobalID(hc.seed)

	needed := make([]map[int]bool, len(s.chans))
	mark := func(ch, local int) {
		if needed[ch] == nil {
			needed[ch] = make(map[int]bool)
		}
		needed[ch][local] = true
	}
	mark(home, hc.seed)
	markGlobal := func(gid int32) error {
		ch, local := s.ownerOf(gid, home)
		if ch < 0 {
			return fmt.Errorf("fabric: answer region %d not held by any touched channel", gid)
		}
		mark(ch, local)
		return nil
	}

	if s.q.WindowW > 0 || s.q.WindowH > 0 {
		w := s.q.Window(p)
		got := make(map[int32]bool)
		for ch := range s.chans {
			if !s.chans[ch].rect.Intersects(w) {
				continue
			}
			cc, err := s.ensure(ch, p, out)
			if err != nil {
				return ch, err
			}
			for _, li := range cc.adj.Window(cc.seed, w) {
				got[cc.adj.GlobalID(int(li))] = true
			}
		}
		out.Window = make([]int32, 0, len(got))
		for gid := range got {
			out.Window = append(out.Window, gid)
		}
		sort.Slice(out.Window, func(i, j int) bool { return out.Window[i] < out.Window[j] })
		for _, gid := range out.Window {
			if err := markGlobal(gid); err != nil {
				return home, err
			}
		}
	}

	if s.q.K > 0 {
		knn, failCh, err := s.knn(p, hc, out)
		if err != nil {
			return failCh, err
		}
		out.KNN = knn
		for _, gid := range knn {
			if err := markGlobal(gid); err != nil {
				return home, err
			}
		}
	}

	// Download missing answer buckets per touched channel, ascending local
	// id (broadcast order), and evict the ones that left the answer set.
	for ch, cc := range s.chans {
		if cc.stamp != s.stamp {
			continue
		}
		need := needed[ch]
		var order []int
		for li := range need {
			if _, ok := cc.buckets[li]; !ok {
				order = append(order, li)
			}
		}
		sort.Ints(order)
		if len(order) > 0 {
			cli, err := s.fc.client(ch)
			if err != nil {
				return ch, err
			}
			for _, li := range order {
				data, err := cli.FetchBucket(li, &cc.res)
				if err != nil {
					return ch, err
				}
				cc.buckets[li] = data
			}
		}
		for li := range cc.buckets {
			if !need[li] {
				delete(cc.buckets, li)
			}
		}
	}

	anyRef, anyCross := false, false
	for _, cc := range s.chans {
		if cc.stamp != s.stamp {
			continue
		}
		anyRef = anyRef || cc.refreshed
		anyCross = anyCross || cc.crossed
	}
	out.Refreshed = anyRef
	out.Crossed = !anyRef && anyCross
	out.Revalidated = !anyRef && !anyCross
	return -1, nil
}

// ensureDirectory reads the replicated channel directory once, off the
// entry channel, as its own accounted leg. A lone channel carries no
// directory: the route is a single leaf to channel 0, d is 0, and the leg
// just opened becomes channel 0's own — its acquisition resumes from
// packet 0, already read, so the single channel pays no extra probe.
func (s *Continuous) ensureDirectory(entry int, p geom.Point, out *ContCycle) error {
	cli, err := s.fc.client(entry)
	if err != nil {
		return err
	}
	s.dirLeg = stream.Result{}
	s.dirStamp = s.stamp
	if err := cli.Probe(&s.dirLeg); err != nil {
		return err
	}
	if len(s.chans) == 1 {
		head, err := cli.FetchIndexPackets(&s.dirLeg, 0, 1)
		if err != nil {
			return err
		}
		s.dir, s.d = &Directory{S: 1, Nodes: []DirNode{{Axis: axisLeaf}}}, 0
		cc := s.chans[0]
		cc.stamp, cc.res = s.stamp, s.dirLeg
		cc.refreshed, cc.crossed = false, false
		s.dirStamp = 0 // the leg is folded as channel 0's, not twice
		out.Gens[0] = cc.res.Generation
		return s.acquireChan(0, cli, cc, p, head[0])
	}
	dir, d, err := s.fc.readDirectory(cli, &s.dirLeg)
	if err != nil {
		return err
	}
	s.dir, s.d = dir, d
	return nil
}

// ensure opens channel ch's leg for this attempt (idempotent per attempt):
// probe, then either revalidate the cached seed against clamp(p, rect),
// re-descend after a boundary crossing, or re-acquire the appendix after a
// generation change (always in fresh mode).
//
// On every channel but the home one, clamp(p, rect) lies on the shard
// rectangle's border, where the D-tree descent is not exact: it may land a
// few cells away from the point, and a window walk flooding from such a
// seed can miss the cells that meet its rectangle. Every located seed is
// therefore settled on the region that contains the clamped point, by a
// walk over the cached adjacency table that costs no tuning.
func (s *Continuous) ensure(ch int, p geom.Point, out *ContCycle) (*contChan, error) {
	cc := s.chans[ch]
	if cc.stamp == s.stamp {
		return cc, nil
	}
	cli, err := s.fc.client(ch)
	if err != nil {
		return nil, err
	}
	cc.stamp = s.stamp
	cc.res = stream.Result{}
	cc.refreshed, cc.crossed = false, false
	if err := cli.Probe(&cc.res); err != nil {
		return nil, err
	}
	out.Gens[ch] = cc.res.Generation
	if s.mode == stream.ModeFresh || !cc.genValid || cc.res.Generation != cc.gen {
		return cc, s.acquireChan(ch, cli, cc, p, nil)
	}
	q := clampPoint(p, cc.rect)
	if cc.adj.Contains(cc.seed, q) {
		return cc, nil
	}
	seed, err := cli.LocateShifted(q, s.d+cc.adjPkts, &cc.res)
	if err != nil {
		return nil, err
	}
	cc.seed = cc.adj.Settle(seed, q)
	cc.crossed = true
	return cc, nil
}

// acquireChan performs one channel's full tune-in: the self-describing
// adjacency appendix behind the directory, then the index descent for the
// clamped position. head, when not nil, is the appendix's first packet,
// already read in this leg.
func (s *Continuous) acquireChan(ch int, cli *stream.Client, cc *contChan, p geom.Point, head []byte) error {
	cc.invalidate()
	if head == nil {
		pkts, err := cli.FetchIndexPackets(&cc.res, s.d, s.d+1)
		if err != nil {
			return err
		}
		head = pkts[0]
	}
	count, err := core.AdjacencyPacketCount(head)
	if err != nil {
		return fmt.Errorf("fabric: channel %d carries no adjacency appendix: %w", ch, err)
	}
	rest, err := cli.FetchIndexPackets(&cc.res, s.d+1, s.d+count)
	if err != nil {
		return err
	}
	adj, err := core.DecodeAdjacency(append([][]byte{head}, rest...))
	if err != nil {
		return err
	}
	cc.adj, cc.adjPkts = adj, count
	cc.rect, cc.rectValid = adj.Area, true
	cc.localOf = make(map[int32]int, adj.N())
	for i := 0; i < adj.N(); i++ {
		cc.localOf[adj.GlobalID(i)] = i
	}
	q := clampPoint(p, cc.rect)
	seed, err := cli.LocateShifted(q, s.d+count, &cc.res)
	if err != nil {
		return err
	}
	cc.seed = adj.Settle(seed, q)
	cc.gen, cc.genValid = cc.res.Generation, true
	cc.refreshed = true
	return nil
}

// knn answers the standing kNN query. The home shard's k nearest bound the
// true k-th distance from above whenever the shard holds at least k regions;
// the candidate square doubles from there until the k-th ranked candidate
// provably cannot be beaten or the square covers every shard.
func (s *Continuous) knn(p geom.Point, hc *contChan, out *ContCycle) ([]int32, int, error) {
	k := s.q.K
	local := hc.adj.KNN(hc.seed, p, k)
	var r2 float64
	for _, li := range local {
		if d2 := p.Dist2(hc.adj.Sites[li]); d2 > r2 {
			r2 = d2
		}
	}
	r := math.Sqrt(r2)
	if len(local) < k || r == 0 {
		// The home shard alone cannot bound the k-th distance: start from
		// its own scale and let the doubling loop do the rest.
		if g := math.Max(hc.rect.W(), hc.rect.H()) / 2; g > r {
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
		best := make(map[int32]float64)
		covered := true
		for ch := range s.chans {
			cc := s.chans[ch]
			if !wr.ContainsRect(cc.rect) {
				covered = false
			}
			if !cc.rect.Intersects(wr) {
				continue
			}
			cc, err := s.ensure(ch, p, out)
			if err != nil {
				return nil, ch, err
			}
			for _, li := range cc.adj.Window(cc.seed, wr) {
				gid := cc.adj.GlobalID(int(li))
				d2 := p.Dist2(cc.adj.Sites[li])
				if old, ok := best[gid]; !ok || d2 < old {
					best[gid] = d2
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
			return ids, -1, nil
		}
		if covered {
			// Fewer than k regions exist in total: return them all.
			ids := make([]int32, len(ranked))
			for i := range ids {
				ids[i] = ranked[i].gid
			}
			return ids, -1, nil
		}
		r *= 2
	}
}

// ownerOf resolves which touched channel serves a global id's bucket: the
// home channel when it holds a piece of the region, else the lowest-numbered
// touched channel that does (deterministic across runs).
func (s *Continuous) ownerOf(gid int32, home int) (int, int) {
	if hc := s.chans[home]; hc.stamp == s.stamp {
		if li, ok := hc.localOf[gid]; ok {
			return home, li
		}
	}
	for ch, cc := range s.chans {
		if cc.stamp != s.stamp {
			continue
		}
		if li, ok := cc.localOf[gid]; ok {
			return ch, li
		}
	}
	return -1, -1
}

// foldLegs sums every leg opened this attempt into the cycle total; each
// leg's latency is the slot span its channel was actually tuned, and
// FirstSlot/LastSlot bracket every leg on the shared slot clock.
func (s *Continuous) foldLegs(total *stream.Result) {
	fold := func(r *stream.Result) {
		if r.TuneProbe > 0 {
			if total.TuneProbe == 0 || r.FirstSlot < total.FirstSlot {
				total.FirstSlot = r.FirstSlot
			}
			total.LastSlot = max(total.LastSlot, r.LastSlot)
			total.Latency += float64(r.LastSlot + 1 - r.FirstSlot)
		}
		total.TuneProbe += r.TuneProbe
		total.TuneIndex += r.TuneIndex
		total.TuneData += r.TuneData
		total.TuneRecover += r.TuneRecover
		total.DozedFrames += r.DozedFrames
		total.LostSlots += r.LostSlots
		total.CorruptFrames += r.CorruptFrames
		total.Recoveries += r.Recoveries
		total.EpochRestarts += r.EpochRestarts
	}
	if s.dirStamp == s.stamp {
		fold(&s.dirLeg)
	}
	for _, cc := range s.chans {
		if cc.stamp == s.stamp {
			fold(&cc.res)
		}
	}
}

// clampPoint projects p onto rect — the nearest point of the rectangle,
// which lies in W∩rect for any rect-overlapping window W centered at p.
func clampPoint(p geom.Point, r geom.Rect) geom.Point {
	return geom.Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}
