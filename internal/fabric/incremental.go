package fabric

import (
	"sort"

	"airindex/internal/geom"
)

// Incremental shard cuts. The naive reconfiguration loop re-clips every
// shard from all live cells per Apply batch, then recompiles each touched
// shard from scratch. The incremental path keeps three pieces of
// cross-generation state and touches only what the batch's dirty cells
// reach:
//
//	maintainer batch delta -> per-cell dirty bounding boxes (old cell union
//	new cell) prefilter the shards a batch can possibly touch -> patchClips
//	re-clips only the changed raw cells against a touched shard's rectangle
//	and splices the rest of the previous clip sequence -> each touched
//	shard's stream.Compiler — the very compiler the single channel runs —
//	welds the pieces, rebuilds only the dirty subtrees and patches the flat
//	arena.
//
// Nothing is welded before the clip, so each channel welds a cell once.
// Every product is pinned byte-identical to a from-scratch fabric build of
// the same live cells, and a shard none of the dirty boxes reach skips the
// cut entirely — generation number, clips, program, and all.

// cellChange is one globally changed cell of an Apply batch: its id, where
// it used to be (the previous generation's cell bounds), and — unless it
// was removed — its new polygon and bounds. The union of old and new
// bounds is the cell's churn footprint: a shard rectangle disjoint from
// every footprint in the batch provably keeps its exact clip sequence.
type cellChange struct {
	id     int
	old    geom.Rect
	hasOld bool
	poly   geom.Polygon // nil for a removed cell
	nb     geom.Rect    // new bounds, valid when poly != nil
}

// touches reports whether the change's footprint reaches rect.
func (cc *cellChange) touches(rect geom.Rect) bool {
	return (cc.hasOld && cc.old.Intersects(rect)) || (cc.poly != nil && cc.nb.Intersects(rect))
}

func pieceEqual(a, b geom.Polygon) bool {
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

// patchClips advances one shard's clip sequence by re-clipping only the
// batch's changed cells and splicing the rest of prev — exact clip-equality
// no-op detection at per-cell granularity, so a batch that grazes a shard
// without changing any piece inside it is detected as a no-op without
// rescanning the shard's N cells. Returns the new clip sequence plus the
// shard-local dirty and removed key sets for the shard's Patcher; changed
// is false (and the other returns nil) when every touched piece compares
// bit-equal to its predecessor.
func patchClips(prev []clippedRegion, changes []*cellChange, rect geom.Rect) (clips []clippedRegion, dirty, removed []int, changed bool) {
	type repl struct {
		id    int
		piece geom.Polygon // nil: the cell has no piece in this shard now
	}
	repls := make([]repl, 0, len(changes))
	for _, cc := range changes {
		var piece geom.Polygon
		if cc.poly != nil {
			piece = clipCell(cc.poly, cc.nb, rect)
		}
		repls = append(repls, repl{id: cc.id, piece: piece})
	}
	// changes concatenates the batch's dirty and removed id lists (each
	// ascending, mutually disjoint); restore one ascending order for the
	// merge.
	sort.Slice(repls, func(a, b int) bool { return repls[a].id < repls[b].id })
	clips = make([]clippedRegion, 0, len(prev)+len(repls))
	i, j := 0, 0
	for i < len(prev) || j < len(repls) {
		switch {
		case j >= len(repls) || (i < len(prev) && prev[i].id < repls[j].id):
			clips = append(clips, prev[i])
			i++
		case i >= len(prev) || repls[j].id < prev[i].id:
			if repls[j].piece != nil { // cell newly entered this shard
				clips = append(clips, clippedRegion{id: repls[j].id, poly: repls[j].piece})
				dirty = append(dirty, repls[j].id)
			}
			j++
		default: // same id: replace, drop, or keep
			if repls[j].piece == nil {
				removed = append(removed, prev[i].id)
			} else {
				clips = append(clips, clippedRegion{id: prev[i].id, poly: repls[j].piece})
				if !pieceEqual(prev[i].poly, repls[j].piece) {
					dirty = append(dirty, prev[i].id)
				}
			}
			i++
			j++
		}
	}
	if len(dirty) == 0 && len(removed) == 0 {
		return nil, nil, nil, false
	}
	return clips, dirty, removed, true
}
