package core

import (
	"fmt"
	"sort"

	"airindex/internal/region"
)

// Incremental rebuilds a D-tree across generations of a slowly changing
// subdivision, rebuilding only the subtrees whose region set a batch of
// cell updates touched and splicing every untouched subtree from the
// previous generation by copy. The result is byte-identical (marshal and
// flat arena) to a from-scratch Build of the new subdivision:
//
//   - a subtree whose full leaf set consists of clean regions (canonical
//     polygon unchanged) present in both generations evaluates every
//     partition style to the same candidate — spans, sort orders (stable
//     keys renumber monotonically, so propagated orders keep their relative
//     order), boundary extraction (nbrKey membership is by stable key), and
//     the lazily computed interlocking probability are all pure functions
//     of the subset's coordinates — so its previous build is the build;
//   - every node on a path to a dirty or renumbered-away region is
//     re-evaluated with the normal partition machinery over merge-patched
//     sorted orders.
//
// An Incremental retains the previous generation's tree and sort orders;
// it is not safe for concurrent use.
type Incremental struct {
	buildOpts []BuildOption
	opts      buildOptions

	tree       *Tree
	sub        *region.Subdivision
	keyOfOld   []int32 // old region idx -> stable key
	oldIdxOf   []int32 // stable key -> old region idx (-1 absent)
	orders     subset  // root sort orders (old region indices)
	spans      []regionSpan
	leafParent []int32 // stable key -> BFS id of the node owning the key's leaf
	parent     []int32 // BFS id -> parent BFS id (-1 at root)
}

// Delta reports how much of a rebuild was spliced versus rebuilt.
type Delta struct {
	Total   int // internal nodes in the new tree
	Spliced int // nodes copied from the previous generation
	Fresh   int // nodes re-evaluated from their subsets
}

// NewIncremental creates an incremental builder; opts apply to every
// generation and must match the from-scratch builds being compared against.
func NewIncremental(opts ...BuildOption) *Incremental {
	return &Incremental{buildOpts: append([]BuildOption(nil), opts...)}
}

// Full builds the tree from scratch and retains the state Rebuild patches.
func (inc *Incremental) Full(sub *region.Subdivision) (*Tree, error) {
	t, err := Build(sub, inc.buildOpts...)
	if err != nil {
		return nil, err
	}
	if err := inc.retain(t, sub); err != nil {
		return nil, err
	}
	return t, nil
}

// keyOf returns the subdivision's region->key map, materializing the
// identity for subdivisions built by region.New.
func keyOf(sub *region.Subdivision) []int32 {
	n := sub.N()
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = int32(sub.Key(i))
	}
	return out
}

// retain rebuilds the per-generation lookup state from a finished tree.
func (inc *Incremental) retain(t *Tree, sub *region.Subdivision) error {
	n := sub.N()
	inc.tree, inc.sub = t, sub
	inc.keyOfOld = keyOf(sub)
	maxKey := int32(sub.MaxKey())
	inc.oldIdxOf = make([]int32, maxKey+1)
	for i := range inc.oldIdxOf {
		inc.oldIdxOf[i] = -1
	}
	for i, k := range inc.keyOfOld {
		inc.oldIdxOf[k] = int32(i)
	}

	// Root sort orders and spans, recomputed once per retained generation
	// (Rebuild patches them forward instead when it can).
	b := newBuilder(sub, t.opts, nil)
	inc.spans = b.spans
	inc.opts = t.opts
	inc.orders = subset{}
	for _, k := range b.keys {
		inc.orders[k] = b.sortedIDs(n, k)
	}
	inc.index(t)
	return nil
}

// index fills leafParent and parent for the retained tree.
func (inc *Incremental) index(t *Tree) {
	maxKey := int32(len(inc.oldIdxOf)) - 1
	inc.leafParent = make([]int32, maxKey+1)
	for i := range inc.leafParent {
		inc.leafParent[i] = -1
	}
	inc.parent = make([]int32, len(t.Nodes))
	for i := range inc.parent {
		inc.parent[i] = -1
	}
	for _, n := range t.Nodes {
		for _, c := range [2]ChildRef{n.Left, n.Right} {
			if c.IsData() {
				inc.leafParent[inc.keyOfOld[c.Data]] = int32(n.ID)
			} else {
				inc.parent[c.Node.ID] = int32(n.ID)
			}
		}
	}
}

// Rebuild advances the tree to the new subdivision. dirtyKeys is the
// ascending list of stable keys whose canonical polygon changed or that
// were inserted this generation (removed keys are inferred from the key
// sets). The returned tree is byte-identical to Build(sub) and becomes the
// retained generation.
func (inc *Incremental) Rebuild(sub *region.Subdivision, dirtyKeys []int) (*Tree, Delta, error) {
	if inc.tree == nil {
		return nil, Delta{}, fmt.Errorf("core: incremental rebuild before Full")
	}
	n := sub.N()
	if n == 0 {
		return nil, Delta{}, fmt.Errorf("core: empty subdivision")
	}
	o := inc.opts
	if o.weights != nil {
		return nil, Delta{}, fmt.Errorf("core: incremental rebuild does not support access weights")
	}
	t := &Tree{Sub: sub, opts: o}
	if n == 1 {
		if err := inc.retain(t, sub); err != nil {
			return nil, Delta{}, err
		}
		return t, Delta{}, nil
	}

	newKeyOf := keyOf(sub)
	maxKey := int32(sub.MaxKey())
	if mk := int32(len(inc.oldIdxOf)) - 1; mk > maxKey {
		maxKey = mk
	}
	newIdxOf := make([]int32, maxKey+1)
	for i := range newIdxOf {
		newIdxOf[i] = -1
	}
	for i, k := range newKeyOf {
		newIdxOf[k] = int32(i)
	}
	dirty := make([]bool, maxKey+1)
	for _, k := range dirtyKeys {
		if k < 0 || int32(k) > maxKey || newIdxOf[k] < 0 {
			return nil, Delta{}, fmt.Errorf("core: dirty key %d not in subdivision", k)
		}
		dirty[k] = true
	}

	// New spans: clean regions copy the previous span (the bounds are a
	// function of the unchanged polygon), dirty ones recompute.
	b := newBuilder(sub, o, func(i int) (regionSpan, bool) {
		k := newKeyOf[i]
		oi := inc.lookupOld(k)
		if oi < 0 || dirty[k] {
			return regionSpan{}, false
		}
		sp := inc.spans[oi]
		sp.id = i
		return sp, true
	})

	// Merge-patch each root order: surviving clean ids keep their relative
	// order under the monotone renumbering (keys ascending in both
	// generations), so filtering the old order and merging the re-keyed
	// dirty ids by (key value, id) reproduces sortedIDs exactly. The dirty
	// and new ids are collected once per cut; each key sorts its own copy,
	// and (key value, id) is a strict total order, so every copy's order is
	// fully determined.
	var fresh []int32
	for i := 0; i < n; i++ {
		if dirty[newKeyOf[i]] || inc.lookupOld(newKeyOf[i]) < 0 {
			fresh = append(fresh, int32(i))
		}
	}
	var orders subset
	for _, k := range b.keys {
		dirtyIDs := append([]int32(nil), fresh...)
		sort.Slice(dirtyIDs, func(x, y int) bool {
			vx, vy := b.spans[dirtyIDs[x]].keyVal(k), b.spans[dirtyIDs[y]].keyVal(k)
			if vx != vy {
				return vx < vy
			}
			return dirtyIDs[x] < dirtyIDs[y]
		})
		merged := make([]int32, 0, n)
		di := 0
		for _, oldID := range inc.orders[k] {
			key := inc.keyOfOld[oldID]
			ni := int32(-1)
			if int32(key) <= maxKey {
				ni = newIdxOf[key]
			}
			if ni < 0 || dirty[key] {
				continue // removed or re-keyed into the dirty list
			}
			v := b.spans[ni].keyVal(k)
			for di < len(dirtyIDs) {
				dv := b.spans[dirtyIDs[di]].keyVal(k)
				if dv < v || (dv == v && dirtyIDs[di] < ni) {
					merged = append(merged, dirtyIDs[di])
					di++
				} else {
					break
				}
			}
			merged = append(merged, ni)
		}
		merged = append(merged, dirtyIDs[di:]...)
		if len(merged) != n {
			return nil, Delta{}, fmt.Errorf("core: merged order has %d of %d ids", len(merged), n)
		}
		orders[k] = merged
	}

	// The builder has no spawn tokens, so the rebuild stays sequential, as
	// the splice state requires.
	r := &rebuilder{
		inc: inc, newKeyOf: newKeyOf, newIdxOf: newIdxOf, dirty: dirty,
		oldMark: make([]int32, maxKey+1),
	}
	b.splice = r.splice
	sc := b.scratch()
	ref, err := b.split(orders, sc)
	b.release(sc)
	if err != nil {
		return nil, Delta{}, err
	}
	t.Root = ref.Node
	t.assignIDs()
	delta := Delta{Total: len(t.Nodes), Spliced: r.spliced, Fresh: len(t.Nodes) - r.spliced}

	// Retain forward without recomputing the orders just merged.
	inc.tree, inc.sub, inc.opts = t, sub, o
	inc.keyOfOld = newKeyOf
	inc.oldIdxOf = newIdxOf
	inc.orders = orders
	inc.spans = b.spans
	inc.index(t)
	return t, delta, nil
}

func (inc *Incremental) lookupOld(key int32) int32 {
	if int(key) >= len(inc.oldIdxOf) {
		return -1
	}
	return inc.oldIdxOf[key]
}

// rebuilder is the per-Rebuild recursion state.
type rebuilder struct {
	inc      *Incremental
	newKeyOf []int32
	newIdxOf []int32
	dirty    []bool

	oldMark  []int32 // by stable key, epoch-stamped by collectOld
	oldEpoch int32
	spliced  int
}

// splice is the builder's splice hook: a copy of the previous-generation
// subtree whose leaf set equals the given (new) region ids with every
// member clean, if there is one. A node on a dirty path gets none and runs
// the normal partition search over the merge-patched orders.
func (r *rebuilder) splice(ids []int32) (ChildRef, bool) {
	inc := r.inc
	for _, id := range ids {
		k := r.newKeyOf[id]
		if r.dirty[k] || int(k) >= len(inc.leafParent) || inc.leafParent[k] < 0 {
			return ChildRef{}, false
		}
	}
	// Walk up from the first key's old leaf to the ancestor of matching
	// cardinality, then verify the leaf sets coincide.
	nid := inc.leafParent[r.newKeyOf[ids[0]]]
	for nid >= 0 && inc.tree.Nodes[nid].NumRegions < len(ids) {
		nid = inc.parent[nid]
	}
	if nid < 0 {
		return ChildRef{}, false
	}
	old := inc.tree.Nodes[nid]
	if old.NumRegions != len(ids) {
		return ChildRef{}, false
	}
	r.oldEpoch++
	r.collectOld(ChildRef{Node: old})
	for _, id := range ids {
		if r.oldMark[r.newKeyOf[id]] != r.oldEpoch {
			return ChildRef{}, false
		}
	}
	return r.copySubtree(ChildRef{Node: old}), true
}

func (r *rebuilder) collectOld(c ChildRef) {
	if c.IsData() {
		r.oldMark[r.inc.keyOfOld[c.Data]] = r.oldEpoch
		return
	}
	r.collectOld(c.Node.Left)
	r.collectOld(c.Node.Right)
}

// copySubtree deep-copies a previous-generation subtree, renumbering data
// leaves to the new region indices and marking each node with its source
// BFS id for arena patching. Polyline slices are shared (immutable).
func (r *rebuilder) copySubtree(c ChildRef) ChildRef {
	if c.IsData() {
		key := r.inc.keyOfOld[c.Data]
		return ChildRef{Data: int(r.newIdxOf[key])}
	}
	n := c.Node
	r.spliced++
	return ChildRef{Node: &Node{
		Dim:        n.Dim,
		Polylines:  n.Polylines,
		CutLo:      n.CutLo,
		CutHi:      n.CutHi,
		Left:       r.copySubtree(n.Left),
		Right:      r.copySubtree(n.Right),
		Pruned:     n.Pruned,
		Truncated:  n.Truncated,
		NumRegions: n.NumRegions,
		InterProb:  n.InterProb,
		src:        int32(n.ID) + 1,
	}}
}
