package stream

import (
	"fmt"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/wire"
)

// Incremental generation cuts. A full program compile at 50k sites spends
// seconds in Voronoi snapshot + D-tree partition search; a cut that follows
// a batch of a few site ops re-derives almost all of that from the previous
// generation instead:
//
//	dirty cells -> region.Patcher (reweld only the touched neighborhood) ->
//	core.Incremental (rebuild only dirty subtrees, splice the rest) ->
//	FlattenPatched (bulk-copy clean arena ranges) -> adjacency -> Assemble
//	-> renderPatched (share the previous cycle's data-CRC table).
//
// Every stage is pinned byte-identical to its from-scratch counterpart, so
// an incremental cut broadcasts exactly the bytes a cold rebuild would. The
// same Compiler drives the single channel (keys are site ids) and every
// fabric shard (keys are global data-instance ids of the clipped cells).

// Channel describes one (1, m) broadcast channel: what every generation
// compiled for it shares. A single channel — a one-shard fabric included —
// leaves Prefix nil and GlobalIDs unset; a shard of a fabric of S > 1
// channels sets them to its directory and to true.
type Channel struct {
	// Area is the channel's service rectangle: the outer boundary of its
	// tiling and the area of its adjacency table.
	Area     geom.Rect
	Capacity int
	// M is the index copies per cycle; <= 0 picks the optimal m.
	M int
	// Prefix leads every index copy, ahead of the appendix and the tree.
	Prefix [][]byte
	// GlobalIDs marks the keys as global data-instance ids: every data
	// packet carries its bucket's key (Program.IDs), and so does the
	// adjacency table. Without them a data payload is a pure function of
	// its bucket and packet, so a cut shares the data-CRC table across
	// generations.
	GlobalIDs bool
	// SiteOf, when set, makes every generation carry the region-adjacency
	// table (continuous queries), resolving a region's key to its site.
	SiteOf func(key int) (geom.Point, error)
	// BuildWorkers bounds the D-tree build parallelism; <= 0 uses the core
	// default.
	BuildWorkers int
}

// Cut is one compiled generation of a channel. Region i of Sub is the
// i-th key the generation was compiled from.
type Cut struct {
	Sub   *region.Subdivision
	Flat  *core.FlatPaged
	Prog  *Program
	Stats CutStats
}

// CutStats reports how one generation cut was produced.
type CutStats struct {
	Incremental bool // false: full rebuild (bootstrap, fallback, or large batch)
	DirtyKeys   int  // canonical dirty regions handed to the index rebuild
	Spliced     int  // D-tree nodes copied from the previous generation
	Total       int  // D-tree nodes in the new generation
}

// DirtyPermille returns the rebuilt-node fraction in permille (1000 for a
// full rebuild).
func (cs CutStats) DirtyPermille() int64 {
	if !cs.Incremental || cs.Total == 0 {
		return 1000
	}
	return int64((cs.Total - cs.Spliced) * 1000 / cs.Total)
}

// Program attaches the adjacency table the channel asks for to fp — unless
// fp already carries one, as a restored snapshot does — and assembles the
// channel's program. keys maps region index to key.
func (ch *Channel) Program(sub *region.Subdivision, keys []int, fp *core.FlatPaged) (*Program, error) {
	if ch.SiteOf != nil && fp.Flat.Adjacency() == nil {
		sites := make([]geom.Point, len(keys))
		for i, key := range keys {
			var err error
			if sites[i], err = ch.SiteOf(key); err != nil {
				return nil, err
			}
		}
		adj, err := core.BuildAdjacency(sub, ch.Area, sites)
		if err != nil {
			return nil, err
		}
		if ch.GlobalIDs {
			adj.IDs = make([]int32, len(keys))
			for i, key := range keys {
				adj.IDs[i] = int32(key)
			}
		}
		if err := adj.Validate(); err != nil {
			return nil, err
		}
		if err := fp.Flat.SetAdjacency(adj); err != nil {
			return nil, err
		}
	}
	var ids []int
	if ch.GlobalIDs {
		ids = keys
	}
	return Assemble(ch.Prefix, fp, ch.M, ids)
}

// Build compiles a subdivision from scratch — build, page, flatten,
// assemble — without retaining anything for later cuts.
func (ch *Channel) Build(sub *region.Subdivision, keys []int) (*Cut, error) {
	tree, err := core.Build(sub, core.WithBuildWorkers(ch.BuildWorkers))
	if err != nil {
		return nil, err
	}
	return ch.finish(sub, keys, tree, nil)
}

// finish pages and flattens a built tree, patching against prev's arena
// when given, and assembles the channel's program around it.
func (ch *Channel) finish(sub *region.Subdivision, keys []int, tree *core.Tree, prev *core.FlatPaged) (*Cut, error) {
	paged, err := tree.Page(wire.DTreeParams(ch.Capacity))
	if err != nil {
		return nil, err
	}
	fp := paged.FlattenPatched(prev)
	prog, err := ch.Program(sub, keys, fp)
	if err != nil {
		return nil, err
	}
	return &Cut{Sub: sub, Flat: fp, Prog: prog}, nil
}

// incrFullFraction is the dirty-region fraction above which a cut falls
// back to a full rebuild: with most of the diagram dirty the splice scan is
// pure overhead on top of an almost-complete partition search.
const incrFullFraction = 0.25

// Compiler carries one channel's compile pipeline state from generation to
// generation. Not safe for concurrent use; callers serialize the cuts of a
// channel.
type Compiler struct {
	ch Channel

	patch *region.Patcher
	inc   *core.Incremental
	prog  *Program
	flat  *core.FlatPaged

	// failNext, when non-nil, fails the next compile with this error and
	// clears itself — the fault-injection hook the Apply error-path tests
	// use to exercise cut-failure recovery without corrupting real state.
	failNext error
}

// NewCompiler returns a compiler for the channel; its first cut bootstraps.
func NewCompiler(ch Channel) *Compiler { return &Compiler{ch: ch} }

// Reset drops all retained generation state; the next cut bootstraps.
func (c *Compiler) Reset() { c.patch, c.inc, c.prog, c.flat = nil, nil, nil, nil }

// Retained reports whether the compiler holds a generation the next cut
// can patch against.
func (c *Compiler) Retained() bool { return c.prog != nil }

// FailNext makes the next Compile fail with err without touching the
// retained state, so tests can drive a caller's cut-failure recovery.
func (c *Compiler) FailNext(err error) { c.failNext = err }

// Compile produces the channel's next generation from its live regions
// (keys[i] owns polys[i]) and the batch's dirty and removed keys:
// incrementally when a generation is retained and the batch is small
// enough, from scratch otherwise. Any incremental-path error falls back to
// a full rebuild (the outputs are byte-identical either way). A failed
// full rebuild leaves nothing retained; the caller's error path owns any
// other cleanup.
func (c *Compiler) Compile(keys []int, polys []geom.Polygon, dirty, removed []int) (*Cut, error) {
	if err := c.failNext; err != nil {
		c.failNext = nil
		return nil, err
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("stream: no live regions to compile")
	}
	if c.prog != nil && float64(len(dirty)+len(removed)) <= incrFullFraction*float64(len(keys)) {
		if cut, err := c.incremental(keys, polys, dirty, removed); err == nil {
			return cut, nil
		}
	}
	cut, err := c.full(keys, polys)
	if err != nil {
		c.Reset()
		return nil, err
	}
	cut.Stats.DirtyKeys = len(dirty)
	return cut, nil
}

// full compiles the regions from scratch through a fresh Patcher bootstrap
// (coordinate-identical to region.New, and leaving the compiler able to
// patch forward) and retains the generation state. The previous program
// survives the reset so a fallback cut that keeps the bucket geometry
// still shares its data-CRC table; the previous arena does not, because a
// fresh build splices nothing.
func (c *Compiler) full(keys []int, polys []geom.Polygon) (*Cut, error) {
	prev := c.prog
	c.Reset()
	c.prog = prev
	c.patch = region.NewPatcher(c.ch.Area)
	sub, _, err := c.patch.Patch(keys, polys, keys, nil)
	if err != nil {
		return nil, err
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	c.inc = core.NewIncremental(core.WithBuildWorkers(c.ch.BuildWorkers))
	tree, err := c.inc.Full(sub)
	if err != nil {
		return nil, err
	}
	return c.finish(sub, keys, tree)
}

func (c *Compiler) incremental(keys []int, polys []geom.Polygon, dirty, removed []int) (*Cut, error) {
	sub, canonDirty, err := c.patch.Patch(keys, polys, dirty, removed)
	if err != nil {
		return nil, err
	}
	tree, delta, err := c.inc.Rebuild(sub, canonDirty)
	if err != nil {
		return nil, err
	}
	cut, err := c.finish(sub, keys, tree)
	if err != nil {
		return nil, err
	}
	cut.Stats = CutStats{Incremental: true, DirtyKeys: len(canonDirty), Spliced: delta.Spliced, Total: delta.Total}
	return cut, nil
}

// finish completes a built tree against the retained generation — arena
// patch-in-place and data-CRC sharing — and retains it as the next cut's
// base. A program without global ids is rendered here, sharing the
// previous cycle's data-CRC table; one with them carries the generation's
// keys in its data payloads, so it renders in full when it is published
// (Server.Swap).
func (c *Compiler) finish(sub *region.Subdivision, keys []int, tree *core.Tree) (*Cut, error) {
	cut, err := c.ch.finish(sub, keys, tree, c.flat)
	if err != nil {
		return nil, err
	}
	if cut.Prog.IDs == nil {
		if c.prog != nil {
			rc, err := renderPatched(cut.Prog, c.prog)
			if err != nil {
				return nil, err
			}
			cut.Prog.setRendered(rc)
		}
		if _, err := cut.Prog.Rendered(); err != nil {
			return nil, err
		}
	}
	c.prog, c.flat = cut.Prog, cut.Flat
	return cut, nil
}

// renderPatched renders p's cycle against the previous generation's. When
// neither program carries global ids — so a data payload, and its CRC, is
// a pure function of (bucket, packet) and never of the generation — and
// they keep the capacity, the bucket count and the packets per bucket, the
// data-CRC table is the previous generation's: it is indexed by data
// packet, not by cycle position, so neither a drifted schedule (the
// encoded tree grew or shrank past a packet boundary) nor a new m changes
// it. The new cycle then shares that table by reference and
// computes only its index CRCs. Anything else falls back to a full
// render. TestRenderPatchedSharesDataCRC pins both outcomes against a cold
// render.
func renderPatched(p, prev *Program) (*renderedCycle, error) {
	if prev.rendered == nil || p.IDs != nil || prev.IDs != nil ||
		p.Capacity != prev.Capacity ||
		p.Sched.NumBuckets != prev.Sched.NumBuckets ||
		p.Sched.BucketPackets != prev.Sched.BucketPackets {
		return renderCycle(p, nil)
	}
	return renderCycle(p, prev.rendered)
}
