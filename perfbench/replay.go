package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/region"
	"airindex/internal/stream"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

// fullRebuildFraction mirrors the single-channel swapper's rule: a cut
// whose dirty plus removed cells exceed this share of the live sites is
// compiled from scratch instead of incrementally.
const fullRebuildFraction = 0.25

// cutStages is one replayed cut: the wall time of every stage call, how
// the index was rebuilt, and the index packets it produced.
type cutStages struct {
	apply, liveCells, patch, rebuild, page, flatten, program, render time.Duration

	full      bool
	dirtyKeys int // canonical dirty regions handed to the index rebuild
	spliced   int // D-tree nodes copied from the previous generation
	total     int // D-tree nodes in the new generation
	packets   [][]byte
}

func (c cutStages) sum() time.Duration {
	return c.apply + c.liveCells + c.patch + c.rebuild + c.page + c.flatten + c.program + c.render
}

// replayer reproduces a single-channel swapper's cut pipeline through the
// public stage functions, timing each call: the maintainer's batch ops and
// delta, the live cells, the region patch, the incremental (or full) D-tree
// rebuild, paging, the patched flatten, program assembly and a cold render.
type replayer struct {
	capacity int
	tr       *tracer

	maint *voronoi.Maintainer
	patch *region.Patcher
	inc   *core.Incremental
	flat  *core.FlatPaged
}

// setupStages is the initial build split into its stage calls.
type setupStages struct {
	maintainer, patch, dtree, pageFlatten, render time.Duration
	packets                                       [][]byte
}

// newReplayer bootstraps from the initial sites exactly as the swapper does
// and returns the timed set-up stages.
func newReplayer(ds dataset.Dataset, capacity int, tr *tracer) (*replayer, setupStages, error) {
	r := &replayer{capacity: capacity, tr: tr}
	var st setupStages
	var err error
	t := time.Now()
	r.maint, err = voronoi.NewMaintainer(ds.Area, ds.Sites)
	st.maintainer = r.span("setup.maintainer", t)
	if err != nil {
		return nil, st, err
	}
	t = time.Now()
	ids, polys := r.maint.LiveCells()
	r.patch = region.NewPatcher(r.maint.Area())
	sub, _, err := r.patch.Patch(ids, polys, ids, nil)
	st.patch = r.span("setup.patch", t)
	if err != nil {
		return nil, st, err
	}
	t = time.Now()
	r.inc = core.NewIncremental()
	tree, err := r.inc.Full(sub)
	st.dtree = r.span("setup.dtree", t)
	if err != nil {
		return nil, st, err
	}
	t = time.Now()
	paged, err := tree.Page(wire.DTreeParams(capacity))
	if err != nil {
		return nil, st, err
	}
	fp := paged.FlattenPatched(nil)
	st.pageFlatten = r.span("setup.page_flatten", t)
	t = time.Now()
	prog, err := stream.ProgramFromFlat(fp, 0)
	if err == nil {
		_, err = prog.Rendered()
	}
	st.render = r.span("setup.render", t)
	if err != nil {
		return nil, st, err
	}
	r.flat = fp
	st.packets = prog.IndexPackets
	return r, st, nil
}

func (r *replayer) span(name string, start time.Time) time.Duration {
	d := time.Since(start)
	r.tr.record(name, start, d)
	return d
}

// cut replays one applied batch. advanced is false when the batch left the
// diagram byte-identical, in which case the swapper publishes nothing.
func (r *replayer) cut(ops []stream.SiteOp) (st cutStages, advanced bool, err error) {
	t := time.Now()
	r.maint.BeginBatch()
	for _, op := range ops {
		switch op.Kind {
		case stream.OpAdd:
			_, err = r.maint.Add(op.P)
		case stream.OpRemove:
			err = r.maint.Remove(op.ID)
		case stream.OpMove:
			_, err = r.maint.Move(op.ID, op.P)
		default:
			err = fmt.Errorf("unknown site op kind %d", op.Kind)
		}
		if err != nil {
			return st, false, err
		}
	}
	dirty, removed := r.maint.BatchDelta()
	st.apply = r.span("voronoi.apply", t)
	if len(dirty) == 0 && len(removed) == 0 {
		return st, false, nil
	}
	t = time.Now()
	ids, polys := r.maint.LiveCells()
	st.liveCells = r.span("voronoi.live_cells", t)

	var tree *core.Tree
	incremental := float64(len(dirty)+len(removed)) <= fullRebuildFraction*float64(r.maint.Len())
	if incremental {
		t = time.Now()
		sub, canonDirty, perr := r.patch.Patch(ids, polys, dirty, removed)
		st.patch = r.span("region.patch", t)
		if perr == nil {
			t = time.Now()
			var delta core.Delta
			tree, delta, perr = r.inc.Rebuild(sub, canonDirty)
			st.rebuild = r.span("core.rebuild", t)
			st.dirtyKeys, st.spliced, st.total = len(canonDirty), delta.Spliced, delta.Total
		}
		// The swapper falls back to a full rebuild on any incremental error.
		incremental = perr == nil
	}
	if !incremental {
		st.full = true
		t = time.Now()
		r.patch = region.NewPatcher(r.maint.Area())
		sub, _, perr := r.patch.Patch(ids, polys, ids, nil)
		st.patch += r.span("region.patch", t)
		if perr != nil {
			return st, true, perr
		}
		t = time.Now()
		r.inc = core.NewIncremental()
		tree, err = r.inc.Full(sub)
		st.rebuild += r.span("core.rebuild", t)
		if err != nil {
			return st, true, err
		}
		r.flat = nil
		st.dirtyKeys = len(dirty)
	}
	t = time.Now()
	paged, err := tree.Page(wire.DTreeParams(r.capacity))
	st.page = r.span("core.page", t)
	if err != nil {
		return st, true, err
	}
	t = time.Now()
	fp := paged.FlattenPatched(r.flat)
	st.flatten = r.span("core.flatten", t)
	t = time.Now()
	prog, err := stream.ProgramFromFlat(fp, 0)
	st.program = r.span("stream.program", t)
	if err != nil {
		return st, true, err
	}
	t = time.Now()
	_, err = prog.Rendered()
	st.render = r.span("stream.render_cold", t)
	if err != nil {
		return st, true, err
	}
	r.flat = fp
	st.packets = prog.IndexPackets
	return st, true, nil
}

// replayBatches replays every batch the recording sink saw on a
// single-channel swapper and checks each replayed generation's index
// packets against the published generation's, byte for byte.
func replayBatches(ds dataset.Dataset, sw *stream.Swapper, recs []batchRec, tr *tracer) ([]cutStages, []time.Duration, setupStages, error) {
	r, setup, err := newReplayer(ds, capacity, tr)
	if err != nil {
		return nil, nil, setup, fmt.Errorf("replay bootstrap: %w", err)
	}
	if g := sw.Generation(1); g == nil || !equalPackets(setup.packets, g.Prog.IndexPackets) {
		return nil, nil, setup, fmt.Errorf("replay bootstrap: index packets differ from generation 1")
	}
	var cuts []cutStages
	var applies []time.Duration
	for i, rec := range recs {
		if rec.err != nil {
			return nil, nil, setup, fmt.Errorf("replay: batch %d failed on the live swapper (%v); the replay does not model failed cuts", i, rec.err)
		}
		st, adv, err := r.cut(rec.ops[:len(rec.ids)])
		if err != nil {
			return nil, nil, setup, fmt.Errorf("replay batch %d: %w", i, err)
		}
		if adv != rec.advanced() {
			return nil, nil, setup, fmt.Errorf("replay batch %d: replay advanced=%v, live swapper advanced=%v", i, adv, rec.advanced())
		}
		if !adv {
			continue
		}
		g := sw.Generation(rec.after[0])
		if g == nil || !equalPackets(st.packets, g.Prog.IndexPackets) {
			return nil, nil, setup, fmt.Errorf("replay batch %d: index packets differ from published generation %d", i, rec.after[0])
		}
		st.packets = nil
		cuts = append(cuts, st)
		applies = append(applies, rec.end.Sub(rec.start))
	}
	return cuts, applies, setup, nil
}

func equalPackets(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func packetsDigest(pkts [][]byte) [32]byte {
	h := sha256.New()
	for _, p := range pkts {
		h.Write(p)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// cutStageMetrics summarizes replayed cuts as per-cut means, with the
// residual of the live apply the stages do not account for.
func cutStageMetrics(prefix string, cuts []cutStages, applies []time.Duration) []namedMetric {
	var apply, live, patch, rebuild, page, flatten, program, render, residual, splicedFrac, dirty []float64
	for i, c := range cuts {
		apply = append(apply, ms(c.apply))
		live = append(live, ms(c.liveCells))
		patch = append(patch, ms(c.patch))
		rebuild = append(rebuild, ms(c.rebuild))
		page = append(page, ms(c.page))
		flatten = append(flatten, ms(c.flatten))
		program = append(program, ms(c.program))
		render = append(render, ms(c.render))
		residual = append(residual, ms(applies[i]-c.sum()))
		dirty = append(dirty, float64(c.dirtyKeys))
		if !c.full && c.total > 0 {
			splicedFrac = append(splicedFrac, float64(c.spliced)/float64(c.total))
		}
	}
	return []namedMetric{
		{prefix + "voronoi.apply_ms", mean(apply), "ms"},
		{prefix + "voronoi.live_cells_ms", mean(live), "ms"},
		{prefix + "region.patch_ms", mean(patch), "ms"},
		{prefix + "core.rebuild_ms", mean(rebuild), "ms"},
		{prefix + "core.page_ms", mean(page), "ms"},
		{prefix + "core.flatten_ms", mean(flatten), "ms"},
		{prefix + "stream.program_ms", mean(program), "ms"},
		{prefix + "stream.render_cold_ms", mean(render), "ms"},
		{prefix + "cut.residual_ms", mean(residual), "ms"},
		{prefix + "core.spliced_fraction", mean(splicedFrac), "ratio"},
		{prefix + "core.dirty_keys_per_cut", mean(dirty), "count"},
	}
}

// The cut-breakdown one-off replays single-move cuts at 10 000 and at
// 50 000 sites with 256-byte packets: the regime of BENCH_incr.json's
// BenchmarkIncrementalCut/N=50k/batch=1 (706 ms per cut), whose time it
// splits into stages. (At 50 000 sites a 128-byte-packet cycle is too long
// for the wire format's 16-bit next-index delta.)
const (
	breakdownName     = "cut-breakdown"
	breakdownCuts     = 16
	breakdownOps      = 1
	breakdownCapacity = 256
)

func runBreakdown(seed int64) (*result, error) {
	res := &result{correct: true}
	res.line("record: one-off cut-stage breakdown; %d cuts of %d random moves each, seed %d, %d-byte packets", breakdownCuts, breakdownOps, seed, breakdownCapacity)
	for _, n := range []int{10000, 50000} {
		ds := dataset.LargeUniform(n)
		rng := rand.New(rand.NewSource(seed))
		batches := make([][]stream.SiteOp, breakdownCuts)
		for i := range batches {
			for j := 0; j < breakdownOps; j++ {
				batches[i] = append(batches[i], stream.SiteOp{Kind: stream.OpMove, ID: rng.Intn(n), P: randomPoint(rng, ds.Area)})
			}
		}
		// The live swapper first: its apply time per cut and a digest of the
		// index packets it publishes.
		t := time.Now()
		sw, err := stream.NewSwapper(ds.Area, ds.Sites, breakdownCapacity, 0)
		if err != nil {
			return nil, err
		}
		swSetup := time.Since(t)
		applies := make([]time.Duration, len(batches))
		digests := make([][32]byte, len(batches))
		for i, b := range batches {
			t := time.Now()
			if _, _, err := sw.Apply(b); err != nil {
				return nil, fmt.Errorf("%d sites, batch %d: %w", n, i, err)
			}
			applies[i] = time.Since(t)
			digests[i] = packetsDigest(sw.Current().Prog.IndexPackets)
		}
		sw = nil
		runtime.GC()

		tr := &tracer{}
		tr.on.Store(true)
		r, setup, err := newReplayer(ds, breakdownCapacity, tr)
		if err != nil {
			return nil, err
		}
		cuts := make([]cutStages, 0, len(batches))
		for i, b := range batches {
			st, adv, err := r.cut(b)
			if err != nil {
				return nil, fmt.Errorf("%d sites, replay batch %d: %w", n, i, err)
			}
			if !adv || packetsDigest(st.packets) != digests[i] {
				res.correct = false
				res.line("wrong: %d sites, replay batch %d: index packets differ from the swapper's", n, i)
			}
			st.packets = nil
			cuts = append(cuts, st)
		}
		prefix := fmt.Sprintf("n%d.", n)
		var applyMS []float64
		for _, d := range applies {
			applyMS = append(applyMS, ms(d))
		}
		res.layer = append(res.layer,
			namedMetric{prefix + "swapper.setup_s", swSetup.Seconds(), "s"},
			namedMetric{prefix + "swapper.apply_ms_mean", mean(applyMS), "ms"},
			namedMetric{prefix + "swapper.apply_ms_p50", median(applyMS), "ms"},
			namedMetric{prefix + "setup.maintainer_s", setup.maintainer.Seconds(), "s"},
			namedMetric{prefix + "setup.patch_s", setup.patch.Seconds(), "s"},
			namedMetric{prefix + "setup.dtree_s", setup.dtree.Seconds(), "s"},
			namedMetric{prefix + "setup.page_flatten_s", setup.pageFlatten.Seconds(), "s"},
			namedMetric{prefix + "setup.render_s", setup.render.Seconds(), "s"},
		)
		res.layer = append(res.layer, cutStageMetrics(prefix, cuts, applies)...)
		res.attempted += int64(len(batches))
		r = nil
		runtime.GC()
	}
	return res, nil
}
