package stream

import (
	"fmt"
	"sync"
	"time"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/voronoi"
)

// Site churn: the live-reconfiguration pipeline. A Swapper owns the
// broadcast's site population through a voronoi.Maintainer; each Apply
// batch mutates the diagram incrementally (bit-identical to a from-scratch
// rebuild, see internal/voronoi), rebuilds the D-tree program off the
// serving hot path, and publishes it to the bound Server, which rolls every
// connection over at its next cycle boundary under a bumped generation.

// SiteOp kinds.
const (
	OpAdd = iota
	OpRemove
	OpMove
)

// SiteOp is one site mutation of an Apply batch.
type SiteOp struct {
	Kind int
	ID   int        // Remove, Move: the live site id to touch
	P    geom.Point // Add, Move: the (new) location
}

// ApplyOps opens a new dirty-batch window on maint (BeginBatch) and applies
// ops in order, stopping at the first that fails. It returns the batch
// position -> resulting site id mapping for the prefix that applied: a new
// id for Add, the site's stable id echoed for Remove and Move.
func ApplyOps(maint *voronoi.Maintainer, ops []SiteOp) ([]int, error) {
	maint.BeginBatch()
	ids := make([]int, 0, len(ops))
	for _, op := range ops {
		var id int
		var err error
		switch op.Kind {
		case OpAdd:
			id, err = maint.Add(op.P)
		case OpRemove:
			id, err = op.ID, maint.Remove(op.ID)
		case OpMove:
			id, err = maint.Move(op.ID, op.P)
		default:
			err = fmt.Errorf("stream: unknown site op kind %d", op.Kind)
		}
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Generation is one published broadcast program together with the ground
// truth it was built from, kept so verifiers can check a query answer
// against the exact program its generation stamp names — even after later
// swaps replaced it on the air.
type Generation struct {
	Gen uint32
	Sub *region.Subdivision // the subdivision the program indexes
	IDs []int               // region index -> stable site id
	// Sites maps region index -> site location at this generation: the
	// ground truth continuous-query verifiers score window/kNN answers
	// against after the maintainer has moved on.
	Sites []geom.Point
	Prog  *Program
	// Flat is the arena the program was rendered from; server-side answer
	// verification queries it allocation-free, and its snapshot restores
	// this generation's exact broadcast on another process.
	Flat *core.FlatPaged
}

// Swapper drives live reconfiguration end to end. All methods are safe for
// concurrent use; Apply batches serialize against each other. The daemon
// and the live figures run a one-shard fabric.Swapper instead, which
// broadcasts the same bytes; this one remains for perfbench.
type Swapper struct {
	mu    sync.Mutex
	maint *voronoi.Maintainer
	comp  *Compiler
	gens  map[uint32]*Generation
	cur   *Generation
	srv   *Server // nil until Bind
	// pending marks that a failed cut left the maintainer ahead of the
	// published program: mutations were applied but never compiled or never
	// swapped onto the air. The failed batch's dirty window is rolled back
	// (BeginBatch) and the compiler reset, so the next Apply — even an
	// empty one — recompiles from scratch and republishes; the incremental
	// path never patches against a base the air never carried.
	pending bool
}

// NewSwapper builds the initial program (generation 1) for the given sites.
// m <= 0 picks the optimal number of index copies per cycle.
func NewSwapper(area geom.Rect, sites []geom.Point, capacity, m int) (*Swapper, error) {
	maint, err := voronoi.NewMaintainer(area, sites)
	if err != nil {
		return nil, err
	}
	sw := &Swapper{
		maint: maint,
		comp:  NewCompiler(Channel{Area: maint.Area(), Capacity: capacity, M: m}),
		gens:  make(map[uint32]*Generation),
	}
	g, _, err := sw.buildLocked(1, nil, nil)
	if err != nil {
		return nil, err
	}
	sw.remember(g)
	return sw, nil
}

// sitesLocked resolves region-ordered site ids to their current locations;
// the caller holds mu (or is still constructing the swapper).
func (sw *Swapper) sitesLocked(ids []int) ([]geom.Point, error) {
	sites := make([]geom.Point, len(ids))
	for i, id := range ids {
		p, err := sw.maint.Site(id)
		if err != nil {
			return nil, err
		}
		sites[i] = p
	}
	return sites, nil
}

// buildLocked compiles the next program from the maintainer's batch delta —
// incrementally against the previous generation when the batch is small,
// from scratch otherwise (byte-identical either way); the caller holds mu.
func (sw *Swapper) buildLocked(gen uint32, dirty, removed []int) (*Generation, CutStats, error) {
	ids, polys := sw.maint.LiveCells()
	cut, err := sw.comp.Compile(ids, polys, dirty, removed)
	if err != nil {
		return nil, CutStats{}, err
	}
	sites, err := sw.sitesLocked(ids)
	if err != nil {
		return nil, cut.Stats, err
	}
	return &Generation{Gen: gen, Sub: cut.Sub, IDs: ids, Sites: sites, Prog: cut.Prog, Flat: cut.Flat}, cut.Stats, nil
}

func (sw *Swapper) remember(g *Generation) {
	sw.gens[g.Gen] = g
	sw.cur = g
}

// Program returns the most recently built program (for NewServer).
func (sw *Swapper) Program() *Program { return sw.Current().Prog }

// Bind attaches the swapper to the server its programs publish to. The
// server must have been built from sw.Program() so generation numbering
// lines up (NewServer starts at generation 1, as does NewSwapper).
func (sw *Swapper) Bind(srv *Server) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.srv = srv
}

// Current returns the latest built generation.
func (sw *Swapper) Current() *Generation {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.cur
}

// Generation returns the published generation gen, or nil if unknown.
func (sw *Swapper) Generation(gen uint32) *Generation {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.gens[gen]
}

// Len returns the current number of live sites.
func (sw *Swapper) Len() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.maint.Len()
}

// Pending reports whether a failed cut left the maintainer ahead of the
// published program. The next Apply — `Apply(nil)` suffices — recompiles
// the current site set from scratch and republishes; callers retrying a
// failed batch consult this to avoid re-applying operations that already
// landed (the ingest pipeline's republish path).
func (sw *Swapper) Pending() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.pending
}

// abortCut rolls the cut pipeline back after a failed build or publish:
// the compiler forgets its retained generation state (the next compile is
// a clean full rebuild) and the maintainer's dirty-batch window closes, so
// a later batch never inherits stale dirty cells from this one. The
// maintainer's site mutations stay — they are valid after every op — and
// pending records that the air now trails them. Caller holds mu.
func (sw *Swapper) abortCut() {
	sw.comp.Reset()
	sw.maint.BeginBatch()
	sw.pending = true
}

// Apply runs one batch of site operations through the maintainer, rebuilds
// the broadcast program in this goroutine (off the serving hot path), and —
// when bound — publishes it to the server, returning the new generation.
// The rebuild is incremental: only the D-tree subtrees and arena ranges the
// batch's dirty cells touched, and the index CRCs, are recomputed, and the
// result is byte-identical to a from-scratch compile. An operation that
// fails stops the batch: operations already applied stay applied and ARE
// published (the diagram is valid after every op), so the broadcast never
// reflects a half-applied operation, only a shortened batch. The returned
// ids slice maps batch position -> resulting site id (a new id for Add, the
// site's stable id echoed for Remove and Move), valid for the prefix that
// succeeded.
//
// A failed cut (build or publish error) keeps the applied operations in
// the maintainer but rolls the cut pipeline back — the compiler state and
// the dirty-batch window are reset, and Pending() turns true — so the next
// Apply, even with an empty batch, recompiles the live site set from
// scratch and republishes it. Retriers should therefore NOT resubmit a
// batch whose error came after its operations applied: `Apply(nil)`
// finishes the cut without double-applying anything.
func (sw *Swapper) Apply(ops []SiteOp) (gen uint32, ids []int, err error) {
	start := time.Now()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ids, opErr := ApplyOps(sw.maint, ops)
	if len(ids) == 0 && opErr != nil && !sw.pending {
		// Nothing changed; keep the current generation on the air.
		return sw.cur.Gen, nil, opErr
	}
	dirty, removed := sw.maint.BatchDelta()
	if len(dirty) == 0 && len(removed) == 0 && !sw.pending {
		// The batch was a byte-level no-op (e.g. a move back to the same
		// spot); the program on the air is already exact.
		return sw.cur.Gen, ids, opErr
	}
	next := sw.cur.Gen + 1
	buildStart := time.Now()
	g, st, err := sw.buildLocked(next, dirty, removed)
	if err != nil {
		sw.abortCut()
		return sw.cur.Gen, ids, err
	}
	buildNS := time.Since(buildStart).Nanoseconds()
	// Record the generation before publishing: a client may pin it and
	// look up its ground truth the instant the first swapped frame is on
	// the air, which can be before Swap even returns.
	prev := sw.cur
	sw.remember(g)
	if sw.srv != nil {
		if _, err := sw.srv.Swap(g.Prog); err != nil {
			delete(sw.gens, g.Gen)
			sw.cur = prev
			sw.abortCut()
			return prev.Gen, ids, err
		}
		// End-to-end reconfiguration latency: maintainer mutation + off-path
		// rebuild + render + publish, the number capacity planning needs —
		// plus the cut's compile cost and dirty fraction on their own series.
		m := sw.srv.Metrics()
		m.SwapLatencyNS.Observe(time.Since(start).Nanoseconds())
		m.CutBuildNS.Observe(buildNS)
		m.CutDirtyPermille.Set(st.DirtyPermille())
	}
	sw.pending = false
	return next, ids, opErr
}
