package fabric

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"airindex/internal/geom"
	"airindex/internal/stream"
	"airindex/internal/voronoi"
)

// ShardGeneration is one published program of one shard together with the
// ground truth it indexes, kept for post-hoc answer verification exactly
// like stream.Generation.
type ShardGeneration struct {
	Gen   uint32
	Shard *Shard
}

// Swapper drives live reconfiguration of a sharded fabric with per-shard
// generation cuts: one global voronoi.Maintainer owns the site population,
// and an Apply batch rebuilds and republishes only the shards whose
// clipped content actually changed — churn confined to one shard's
// interior leaves every other channel's broadcast untouched, generation
// number and all. Shards clip the maintainer's raw cells, and each shard's
// compiler is the only place its pieces are welded. Each cut is
// incremental end to end: the batch's dirty cells prefilter the touched
// shards by bounding box, patchClips re-clips only those cells, and each
// touched shard's retained compiler rebuilds only the dirty D-tree
// subtrees and arena ranges — byte-identical to a from-scratch fabric
// build of the live cells. The partition (rects and directory) is fixed
// for the swapper's lifetime, so client routing is generation-invariant.
type Swapper struct {
	capacity int
	opts     Options

	mu    sync.Mutex
	maint *voronoi.Maintainer
	dir   *Directory
	rects []geom.Rect
	cur   []*ShardGeneration
	gens  []map[uint32]*ShardGeneration
	srvs  []*stream.Server
	comps []*stream.Compiler
	// bounds caches every live cell's bounding box (site id -> bounds of
	// the cell as of the last published cut); together with a dirty cell's
	// new bounds it forms the churn footprint the shard prefilter tests.
	bounds map[int]geom.Rect
	// stale marks that a failed Apply left the published shards behind the
	// maintainer; the next Apply reconciles every shard from a fresh clip
	// scan instead of trusting the incremental clip delta.
	stale bool
}

// NewSwapper builds the initial fabric (every shard at generation 1) for
// the given sites.
func NewSwapper(area geom.Rect, sites []geom.Point, S, capacity int, opts Options) (*Swapper, error) {
	maint, err := voronoi.NewMaintainer(area, sites)
	if err != nil {
		return nil, err
	}
	dir, rects, _, err := Partition(area, sites, S)
	if err != nil {
		return nil, err
	}
	sw := &Swapper{
		capacity: capacity,
		opts:     opts,
		maint:    maint,
		dir:      dir,
		rects:    rects,
		cur:      make([]*ShardGeneration, S),
		gens:     make([]map[uint32]*ShardGeneration, S),
		srvs:     make([]*stream.Server, S),
		comps:    make([]*stream.Compiler, S),
		bounds:   make(map[int]geom.Rect, len(sites)),
	}
	for ch := 0; ch < S; ch++ {
		// Adjacency sites resolve against the live maintainer: compiles run
		// strictly after a batch's mutations, so the lookup sees exactly the
		// generation's sites. Reads are lock-free and the Apply path
		// serializes writers.
		sc, err := shardChannel(dir, ch, rects[ch], capacity, opts, maint.Site)
		if err != nil {
			return nil, err
		}
		sw.comps[ch] = stream.NewCompiler(sc)
	}
	ids, polys := maint.LiveCells()
	for i, id := range ids {
		sw.bounds[id] = polys[i].Bounds()
	}
	var wg sync.WaitGroup
	errs := make([]error, S)
	for ch := 0; ch < S; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			sh, _, err := sw.cut(ch, clipShard(ids, polys, rects[ch]), nil, nil)
			if err != nil {
				errs[ch] = err
				return
			}
			g := &ShardGeneration{Gen: 1, Shard: sh}
			sw.gens[ch] = map[uint32]*ShardGeneration{1: g}
			sw.cur[ch] = g
		}(ch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// Shards returns the channel count.
func (sw *Swapper) Shards() int { return len(sw.cur) }

// DirPackets returns the directory prefix length in packets (0 when S = 1).
func (sw *Swapper) DirPackets() int { return prefixPackets(sw.dir, sw.capacity) }

// Programs returns the current per-channel programs (for stream.NewServer).
func (sw *Swapper) Programs() []*stream.Program {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]*stream.Program, len(sw.cur))
	for ch, g := range sw.cur {
		out[ch] = g.Shard.Prog
	}
	return out
}

// Bind attaches channel ch's server. The server must have been built from
// this swapper's program for ch so generation numbering lines up (both
// start at 1).
func (sw *Swapper) Bind(ch int, srv *stream.Server) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.srvs[ch] = srv
}

// Current returns channel ch's latest built generation.
func (sw *Swapper) Current(ch int) *ShardGeneration {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.cur[ch]
}

// Generation returns channel ch's published generation gen, or nil.
func (sw *Swapper) Generation(ch int, gen uint32) *ShardGeneration {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.gens[ch][gen]
}

// Len returns the current number of live sites.
func (sw *Swapper) Len() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.maint.Len()
}

// LiveSiteIDs returns the ids of the live sites.
func (sw *Swapper) LiveSiteIDs() []int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ids, _ := sw.maint.LiveSites()
	return ids
}

// Pending reports whether a failed Apply left the published fabric behind
// the maintainer (the stale-reconcile state). The next Apply — an empty
// batch suffices — rescans and republishes every drifted shard; retriers
// consult this to avoid re-applying operations that already landed.
func (sw *Swapper) Pending() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.stale
}

// cut compiles channel ch's next generation from its new clip sequence and
// the shard-local dirty and removed global ids.
func (sw *Swapper) cut(ch int, clips []clippedRegion, dirty, removed []int) (*Shard, stream.CutStats, error) {
	ids, polys := splitClips(clips)
	c, err := sw.comps[ch].Compile(ids, polys, dirty, removed)
	if err != nil {
		return nil, stream.CutStats{}, fmt.Errorf("fabric: shard %d: %w", ch, err)
	}
	return newShard(ch, sw.rects[ch], ids, clips, c), c.Stats, nil
}

// pendingShard is one shard the batch actually changed, with its new clip
// sequence and the shard-local dirty/removed key sets.
type pendingShard struct {
	ch      int
	clips   []clippedRegion
	dirty   []int
	removed []int
}

// collectChanges turns the batch's dirty and removed id sets into per-cell
// churn footprints over the live cells. liveIDs is ascending, so dirty ids
// (also ascending) resolve by binary search.
func (sw *Swapper) collectChanges(dirty, removed []int, liveIDs []int, livePolys []geom.Polygon) []*cellChange {
	changes := make([]*cellChange, 0, len(dirty)+len(removed))
	for _, id := range dirty {
		i := sort.SearchInts(liveIDs, id)
		if i >= len(liveIDs) || liveIDs[i] != id {
			continue // defensive: a dirty id must be live
		}
		cc := &cellChange{id: id, poly: livePolys[i], nb: livePolys[i].Bounds()}
		if ob, ok := sw.bounds[id]; ok {
			cc.old, cc.hasOld = ob, true
		}
		changes = append(changes, cc)
	}
	for _, id := range removed {
		if ob, ok := sw.bounds[id]; ok {
			changes = append(changes, &cellChange{id: id, old: ob, hasOld: true})
		}
	}
	return changes
}

// pendingIncremental computes the touched-shard work list from the batch's
// churn footprints: a shard no footprint reaches is provably unchanged and
// is not even re-clipped; a reached shard re-clips only the changed cells
// (patchClips), and drops out if every piece compares bit-equal.
func (sw *Swapper) pendingIncremental(changes []*cellChange) []pendingShard {
	var pending []pendingShard
	var touched []*cellChange
	for ch := range sw.cur {
		rect := sw.rects[ch]
		touched = touched[:0]
		for _, cc := range changes {
			if cc.touches(rect) {
				touched = append(touched, cc)
			}
		}
		if len(touched) == 0 {
			continue
		}
		clips, dirty, removed, changed := patchClips(sw.cur[ch].Shard.clips, touched, rect)
		if !changed {
			continue
		}
		pending = append(pending, pendingShard{ch: ch, clips: clips, dirty: dirty, removed: removed})
	}
	return pending
}

// pendingReconcile is the recovery work list after a failed Apply: rescan
// every shard's clips from the live cells and rebuild the ones that drifted
// from what is published, resetting every compiler first (a failed batch
// may have advanced compiler state past the published generation).
func (sw *Swapper) pendingReconcile(liveIDs []int, livePolys []geom.Polygon) []pendingShard {
	var pending []pendingShard
	for ch := range sw.cur {
		sw.comps[ch].Reset()
		clips := clipShard(liveIDs, livePolys, sw.rects[ch])
		if equalClips(clips, sw.cur[ch].Shard.clips) {
			continue
		}
		pending = append(pending, pendingShard{ch: ch, clips: clips})
	}
	return pending
}

// Apply runs one batch of site operations through the global maintainer
// and rebuilds and republishes exactly the shards whose clipped content
// changed. Detection is incremental: the batch's dirty cells (old bounds
// union new bounds) prefilter the shards the batch can reach, and within a
// reached shard only the changed cells are re-clipped and compared — exact
// clip equality at per-cell granularity, sound because the maintainer
// guarantees untouched cells keep their exact bytes and clipping is
// deterministic. A changed shard is recompiled incrementally by its
// retained compiler (dirty D-tree subtrees rebuilt, the rest spliced;
// full-rebuild fallback), byte-identical to a from-scratch build. It
// returns the per-channel generation now on the air (unchanged shards keep
// their number) and the batch-position -> site-id mapping, with
// stream.Swapper's shortened-batch semantics: ops already applied stay
// applied and are published.
func (sw *Swapper) Apply(ops []stream.SiteOp) (gens []uint32, ids []int, err error) {
	start := time.Now()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ids, opErr := stream.ApplyOps(sw.maint, ops)
	gens = make([]uint32, len(sw.cur))
	for ch, g := range sw.cur {
		gens[ch] = g.Gen
	}
	if len(ids) == 0 && opErr != nil && !sw.stale {
		return gens, nil, opErr
	}
	dirty, removed := sw.maint.BatchDelta()
	if len(dirty) == 0 && len(removed) == 0 && !sw.stale {
		// Byte-level no-op (e.g. a move back to the same spot): every
		// shard's program is already exact.
		return gens, ids, opErr
	}
	liveIDs, livePolys := sw.maint.LiveCells()
	reconcile := sw.stale
	var pending []pendingShard
	if reconcile {
		pending = sw.pendingReconcile(liveIDs, livePolys)
	} else {
		pending = sw.pendingIncremental(sw.collectChanges(dirty, removed, liveIDs, livePolys))
	}
	// Until every rebuild and publish lands, the published fabric may
	// trail the maintainer; any early return leaves the flag set for the
	// next Apply to reconcile.
	sw.stale = true
	// Rebuild the changed shards concurrently; compilers are per-shard, so
	// each goroutine owns its state.
	type rebuilt struct {
		ch      int
		shard   *Shard
		cut     stream.CutStats
		buildNS int64
		err     error
	}
	results := make([]rebuilt, len(pending))
	var wg sync.WaitGroup
	for i, ps := range pending {
		wg.Add(1)
		go func(i int, ps pendingShard) {
			defer wg.Done()
			buildStart := time.Now()
			sh, cut, err := sw.cut(ps.ch, ps.clips, ps.dirty, ps.removed)
			results[i] = rebuilt{ch: ps.ch, shard: sh, cut: cut, buildNS: time.Since(buildStart).Nanoseconds(), err: err}
		}(i, ps)
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			return gens, ids, r.err
		}
	}
	for _, r := range results {
		next := sw.cur[r.ch].Gen + 1
		g := &ShardGeneration{Gen: next, Shard: r.shard}
		// Record before publishing: a client may pin the new generation and
		// look up its ground truth before Swap returns.
		prev := sw.cur[r.ch]
		sw.gens[r.ch][next] = g
		sw.cur[r.ch] = g
		if srv := sw.srvs[r.ch]; srv != nil {
			if _, err := srv.Swap(r.shard.Prog); err != nil {
				delete(sw.gens[r.ch], next)
				sw.cur[r.ch] = prev
				return gens, ids, err
			}
			m := srv.Metrics()
			m.SwapLatencyNS.Observe(time.Since(start).Nanoseconds())
			m.CutBuildNS.Observe(r.buildNS)
			m.CutDirtyPermille.Set(r.cut.DirtyPermille())
		}
		gens[r.ch] = next
	}
	// Everything published; fold the batch into the bounds cache and clear
	// the reconcile flag. A reconcile pass rebuilds the cache outright —
	// the failed batches' deltas were never applied to it.
	if reconcile {
		sw.bounds = make(map[int]geom.Rect, len(liveIDs))
		for i, id := range liveIDs {
			sw.bounds[id] = livePolys[i].Bounds()
		}
	} else {
		for _, id := range removed {
			delete(sw.bounds, id)
		}
		for _, id := range dirty {
			i := sort.SearchInts(liveIDs, id)
			if i < len(liveIDs) && liveIDs[i] == id {
				sw.bounds[id] = livePolys[i].Bounds()
			}
		}
	}
	sw.stale = false
	return gens, ids, opErr
}
