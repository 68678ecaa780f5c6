package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"airindex/internal/geom"
	"airindex/internal/region"
)

// buildOptions configures construction; the defaults implement the paper,
// and the deviations (single style, no tie-break) exist for the ablation
// experiments called out in DESIGN.md.
type buildOptions struct {
	dims        []Dimension
	sortKeys    []bool // true = sort by canonical rightmost, false = leftmost
	tieBreak    bool
	weights     []float64 // access frequencies; nil = cardinality balance
	workers     int       // subtree worker pool size; <= 0 = one per CPU
	perNodeSort bool      // reference path: re-sort spans at every node
}

// BuildOption customizes D-tree construction.
type BuildOption func(*buildOptions)

// WithoutTieBreak disables the inter-prob tie-break between equal-size
// partition styles (ablation).
func WithoutTieBreak() BuildOption {
	return func(o *buildOptions) { o.tieBreak = false }
}

// WithSingleStyle restricts the partition search to one dimension and one
// sort key (ablation: the paper evaluates four/eight styles per node).
func WithSingleStyle(dim Dimension, sortByMax bool) BuildOption {
	return func(o *buildOptions) {
		o.dims = []Dimension{dim}
		o.sortKeys = []bool{sortByMax}
	}
}

// WithAccessWeights builds an access-weighted D-tree: instead of halving
// the region count, every partition halves the query probability mass, so
// frequently-queried regions sit near the root. Expected search depth drops
// from log2(N) toward the entropy of the access distribution — the skewed-
// access extension the paper defers to imbalanced-index work. weights[i] is
// the (unnormalized, non-negative) access frequency of region i; the tree
// keeps the paper's cardinality balance when weights is nil. Weighted trees
// trade the height-balance property for expected tuning time.
func WithAccessWeights(weights []float64) BuildOption {
	return func(o *buildOptions) { o.weights = weights }
}

// WithBuildWorkers bounds the subtree worker pool: above a size cutoff the
// left and right subtrees of a node are built as independent tasks. The
// resulting tree — node ids, partition choices, tie-breaks — is
// bit-identical at any worker count (TestBuildDeterministicAcrossWorkers);
// n <= 0 means one worker per available CPU, 1 forces a sequential build.
func WithBuildWorkers(n int) BuildOption {
	return func(o *buildOptions) { o.workers = n }
}

// withPerNodeSort selects the reference construction path that re-sorts the
// region spans of every node from scratch instead of partitioning the
// pre-sorted root orders down the tree. Only equivalence tests use it.
func withPerNodeSort() BuildOption {
	return func(o *buildOptions) { o.perNodeSort = true }
}

// parallelSpawnMin is the subspace size below which a subtree is always
// built inline: small subtrees are cheaper than goroutine handoff.
const parallelSpawnMin = 128

// subset carries one node's region ids sorted by each enabled style key
// (see keyIdx); every populated slot holds the same id set.
type subset [4][]int32

// keyIdx maps a (dimension, sort key) pair to its subset slot.
func keyIdx(dim Dimension, sortByMax bool) int {
	k := int(dim) * 2
	if sortByMax {
		k++
	}
	return k
}

// keyVal returns the sort key value of a span for a subset slot.
func (r regionSpan) keyVal(k int) float64 {
	dim := Dimension(k / 2)
	if k%2 == 1 {
		return r.canonMax(dim)
	}
	return r.canonMin(dim)
}

// buildScratch is one build task's reusable state. The membership marker
// partitions sorted id lists, its epoch stamp making reuse O(1) instead of
// clearing. The rest serves the partition search: the boundary-extraction
// scratch, the left-subspace ids, the extent, the kept segments of the
// style being scored and of the best style so far, the canonical polygon
// and clip buffers of the inter-prob band area, and the segment chainer.
// Each task owns its scratch (kept on the builder's free list between
// tasks, never retained by the tree), so evaluate runs map-free and, once
// the buffers are warm, allocates only the winner's polylines.
type buildScratch struct {
	mark   []int32
	epoch  int32
	bs     region.BoundaryScratch
	left   []int
	extent []geom.Segment
	kept   []geom.Segment
	best   []geom.Segment
	poly   geom.Polygon
	band   [2]geom.Polygon
	chain  geom.Chainer
}

type builder struct {
	sub   *region.Subdivision
	spans []regionSpan
	opts  buildOptions
	keys  []int         // enabled subset slots, in option order
	sem   chan struct{} // spawn tokens; nil = sequential build

	// free holds the scratch of finished tasks for later ones. It dies
	// with the builder, so a finished build's scratch is garbage at the
	// next collection; a sync.Pool would keep it through two.
	mu   sync.Mutex
	free []*buildScratch
}

// scratch hands a task the scratch a finished task released, or a new one.
func (b *builder) scratch() *buildScratch {
	b.mu.Lock()
	if k := len(b.free); k > 0 {
		sc := b.free[k-1]
		b.free = b.free[:k-1]
		b.mu.Unlock()
		return sc
	}
	b.mu.Unlock()
	return &buildScratch{mark: make([]int32, len(b.spans))}
}

// release returns a finished task's scratch to the free list.
func (b *builder) release(sc *buildScratch) {
	b.mu.Lock()
	b.free = append(b.free, sc)
	b.mu.Unlock()
}

// Build constructs the D-tree for a subdivision by recursively partitioning
// the region set into complementary halves (Section 4.2). The resulting
// tree is height-balanced with exactly two children per node. Each enabled
// style key is sorted once up front and the orders are partitioned down the
// tree, so no node re-sorts its spans; sibling subtrees build in parallel
// on a bounded worker pool with bit-identical output at any worker count.
func Build(sub *region.Subdivision, opts ...BuildOption) (*Tree, error) {
	o := buildOptions{
		dims:     []Dimension{DimY, DimX},
		sortKeys: []bool{true, false},
		tieBreak: true,
	}
	for _, f := range opts {
		f(&o)
	}
	if sub.N() == 0 {
		return nil, fmt.Errorf("core: empty subdivision")
	}
	if o.weights != nil {
		if len(o.weights) != sub.N() {
			return nil, fmt.Errorf("core: %d access weights for %d regions", len(o.weights), sub.N())
		}
		for i, w := range o.weights {
			if w < 0 {
				return nil, fmt.Errorf("core: negative access weight %g for region %d", w, i)
			}
		}
	}
	b := &builder{sub: sub, opts: o, spans: make([]regionSpan, sub.N())}
	for i := range sub.Regions {
		b.spans[i] = newSpan(i, sub.Regions[i].Poly)
	}
	for _, dim := range o.dims {
		for _, byMax := range o.sortKeys {
			if k := keyIdx(dim, byMax); !containsInt(b.keys, k) {
				b.keys = append(b.keys, k)
			}
		}
	}

	t := &Tree{Sub: sub, opts: o}
	if sub.N() == 1 {
		// Degenerate dataset: no partitions; Locate answers 0 directly.
		return t, nil
	}

	var root subset
	for _, k := range b.keys {
		root[k] = b.sortedIDs(sub.N(), k)
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		b.sem = make(chan struct{}, workers-1)
	}
	sc := b.scratch()
	ref, err := b.split(root, sc)
	b.release(sc)
	if err != nil {
		return nil, err
	}
	t.Root = ref.Node
	t.assignIDs()
	return t, nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// sortedIDs returns all region ids ordered by (key value, id); the id
// tie-break makes every order — and therefore the whole tree — a pure
// function of the subdivision.
func (b *builder) sortedIDs(n, k int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(x, y int32) int {
		if c := cmp.Compare(b.spans[x].keyVal(k), b.spans[y].keyVal(k)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return ids
}

// split recursively partitions the region set and returns a reference to
// the subtree (or a data pointer for a single region). Sibling subtrees may
// build concurrently; nothing they compute depends on scheduling, so the
// result is identical to the sequential recursion.
func (b *builder) split(sub subset, sc *buildScratch) (ChildRef, error) {
	ids := sub[b.keys[0]]
	if len(ids) == 1 {
		return ChildRef{Data: int(ids[0])}, nil
	}
	cand, err := b.choosePartition(sub, sc)
	if err != nil {
		return ChildRef{}, err
	}
	leftSub, rightSub := b.partitionSubset(sub, cand.sorted[:cand.k], sc)

	var left, right ChildRef
	var lerr, rerr error
	spawned := false
	if b.sem != nil && len(ids) >= parallelSpawnMin {
		select {
		case b.sem <- struct{}{}:
			spawned = true
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-b.sem }()
				lsc := b.scratch()
				left, lerr = b.split(leftSub, lsc)
				b.release(lsc)
			}()
			right, rerr = b.split(rightSub, sc)
			wg.Wait()
		default:
		}
	}
	if !spawned {
		left, lerr = b.split(leftSub, sc)
		if lerr == nil {
			right, rerr = b.split(rightSub, sc)
		}
	}
	if lerr != nil {
		return ChildRef{}, lerr
	}
	if rerr != nil {
		return ChildRef{}, rerr
	}
	return ChildRef{Node: &Node{
		Dim:        cand.style.dim,
		Polylines:  cand.polylines,
		CutLo:      cand.cutLo,
		CutHi:      cand.cutHi,
		Left:       left,
		Right:      right,
		Pruned:     cand.pruned,
		Truncated:  cand.truncated,
		NumRegions: len(ids),
		InterProb:  cand.interProb,
	}}, nil
}

// partitionSubset splits every enabled sorted order into the ids of the
// chosen left subspace and the rest, preserving relative order — the
// pre-sorted orders flow down the tree instead of being rebuilt per node.
// The scratch stays usable by the caller afterwards.
func (b *builder) partitionSubset(sub subset, left []int32, sc *buildScratch) (ls, rs subset) {
	sc.epoch++
	e := sc.epoch
	for _, id := range left {
		sc.mark[id] = e
	}
	// One block holds every key's two halves, each capped at its length.
	n := len(sub[b.keys[0]])
	block := make([]int32, len(b.keys)*n)
	for x, k := range b.keys {
		src := sub[k]
		l := block[x*n : x*n : x*n+len(left)]
		r := block[x*n+len(left) : x*n+len(left) : (x+1)*n]
		for _, id := range src {
			if sc.mark[id] == e {
				l = append(l, id)
			} else {
				r = append(r, id)
			}
		}
		ls[k], rs[k] = l, r
	}
	return ls, rs
}

// assignIDs numbers nodes in breadth-first order and fills Tree.Nodes; the
// broadcast organization pages and transmits the tree in this order.
func (t *Tree) assignIDs() {
	t.Nodes = t.Nodes[:0]
	if t.Root == nil {
		return
	}
	queue := []*Node{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.ID = len(t.Nodes)
		t.Nodes = append(t.Nodes, n)
		if !n.Left.IsData() {
			queue = append(queue, n.Left.Node)
		}
		if !n.Right.IsData() {
			queue = append(queue, n.Right.Node)
		}
	}
}
