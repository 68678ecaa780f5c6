package core

import (
	"fmt"
	"math"
	"sort"

	"airindex/internal/geom"
)

// style is one of the paper's partition styles: a dimension, a sort key
// (canonical leftmost vs rightmost coordinate of each region), and the
// number of regions assigned to the canonical-left subspace (N/2, or
// (N±1)/2 when N is odd) — four styles for even N, eight for odd.
type style struct {
	dim       Dimension
	sortByMax bool // sort regions by canonical rightmost (max) coordinate; else leftmost
	leftCount int
}

// candidate is an evaluated partition for one style (Algorithm 1's output
// plus the bookkeeping the builder needs). Scoring a style fills in its size
// in points but not its polylines: only the winning style is chained into
// polylines (choosePartition).
type candidate struct {
	style     style
	k         int // regions in the canonical-left subspace: sorted[:k]
	polylines []geom.Polyline
	points    int // partition size in points (2 points = 4 coordinates)
	cutLo     float64
	cutHi     float64
	// interProb is computed lazily (candProb): the band-area clip it needs
	// dominates build time, and it only matters when partition sizes tie.
	// Because it is a pure function of (sorted, dim, cutLo, cutHi), laziness
	// never changes which candidate wins, only when the work happens.
	interProb float64
	probed    bool
	sorted    []int32 // the style's sort order, kept for the lazy computation
	pruned    bool    // Algorithm 1 removed extent segments
	truncated bool    // some segment was cut at the CutLo line
}

// regionSpan caches a region's canonical extremes for both dimensions and
// its area, the weight of the region in every inter-prob it enters.
type regionSpan struct {
	id                     int
	minX, maxX, minY, maxY float64
	area                   float64
}

func newSpan(id int, poly geom.Polygon) regionSpan {
	bb := poly.Bounds()
	return regionSpan{id: id, minX: bb.MinX, maxX: bb.MaxX, minY: bb.MinY, maxY: bb.MaxY, area: poly.Area()}
}

func (r regionSpan) canonMin(d Dimension) float64 {
	if d == DimX {
		return -r.maxY
	}
	return r.minX
}

func (r regionSpan) canonMax(d Dimension) float64 {
	if d == DimX {
		return -r.minY
	}
	return r.maxX
}

// evaluate runs Algorithm 1 (PartitionSize) for one style over the current
// space, whose region ids arrive already sorted by the style's key (with
// ids breaking ties) — either propagated down from the root orders or
// re-sorted by the reference path. It scores the style: the pruned and
// truncated extent is left in sc.kept and its size in points counted
// without building the polylines.
func (b *builder) evaluate(sorted []int32, st style, sc *buildScratch) (candidate, error) {
	n := len(sorted)
	k := st.leftCount
	if k == weightedSplit {
		// Access-weighted build: cut at the weighted median of the sorted
		// order so both subspaces carry about half the query mass.
		var total float64
		for _, id := range sorted {
			total += b.opts.weights[id]
		}
		var acc float64
		k = n - 1
		for i, id := range sorted[:n-1] {
			acc += b.opts.weights[id]
			if acc >= total/2 {
				k = i + 1
				break
			}
		}
	}
	if k <= 0 || k >= n {
		return candidate{}, fmt.Errorf("core: left count %d out of range for %d regions", k, n)
	}

	// right_lmc: canonical leftmost coordinate of the righthand subspace;
	// left_rmc: canonical rightmost coordinate of the lefthand subspace.
	cutLo := math.Inf(1)
	for _, id := range sorted[k:] {
		cutLo = math.Min(cutLo, b.spans[id].canonMin(st.dim))
	}
	cutHi := math.Inf(-1)
	for _, id := range sorted[:k] {
		cutHi = math.Max(cutHi, b.spans[id].canonMax(st.dim))
	}

	// Construct the extent of the lefthand subspace and prune/truncate it
	// against the vertical line x = right_lmc (Algorithm 1, lines 4-16).
	sc.left = sc.left[:0]
	for _, id := range sorted[:k] {
		sc.left = append(sc.left, int(id))
	}
	sc.extent = b.sub.BoundarySegmentsInto(sc.left, &sc.bs, sc.extent[:0])
	return b.finishCandidate(st, sorted, k, cutLo, cutHi, sc)
}

// finishCandidate runs the tail of Algorithm 1: prune and truncate the
// extent in sc.extent against the CutLo line into sc.kept, then count the
// points the survivors chain into.
func (b *builder) finishCandidate(st style, sorted []int32, k int, cutLo, cutHi float64, sc *buildScratch) (candidate, error) {
	n := len(sorted)
	kept := sc.kept[:0]
	var pruned, truncated bool
	const tol = geom.Eps
	for _, s := range sc.extent {
		a, c := canon(st.dim, s.A), canon(st.dim, s.B)
		if a.X <= cutLo+tol && c.X <= cutLo+tol {
			pruned = true
			continue // entirely to the left of (or on) the line: prune
		}
		if a.Y == c.Y {
			// Exactly parallel to the query ray (an axis-aligned service-
			// border piece): the crossing test can never count it, so it is
			// dead weight in the partition.
			pruned = true
			continue
		}
		if a.X < cutLo-tol || c.X < cutLo-tol {
			truncated = true
			// Crosses the line: truncate, identifying right_lmc in the
			// partition (Section 4.4's LMC point).
			if a.X > c.X {
				a, c = c, a
			}
			t := (cutLo - a.X) / (c.X - a.X)
			a = geom.Lerp(a, c, t)
			a.X = cutLo
		}
		kept = append(kept, geom.Segment{A: a, B: c})
	}
	sc.kept = kept
	if len(kept) == 0 {
		if cutHi <= cutLo+tol {
			// The two subspaces have disjoint canonical extents: every
			// query resolves by the band test alone and the node stores no
			// partition at all.
			return candidate{
				style: st, k: k,
				cutLo: cutLo, cutHi: cutHi,
				sorted: sorted,
				pruned: true, // the whole extent fell left of the line
			}, nil
		}
		return candidate{}, fmt.Errorf("core: empty partition for style %+v over %d regions", st, n)
	}

	return candidate{
		style: st, k: k,
		points: sc.chain.Count(kept),
		cutLo:  cutLo, cutHi: cutHi,
		sorted:    sorted,
		pruned:    pruned,
		truncated: truncated,
	}, nil
}

// candProb computes the candidate's interlocking-band probability once.
func (b *builder) candProb(c *candidate, sc *buildScratch) float64 {
	if !c.probed {
		c.interProb = b.interProb(c.sorted, c.style.dim, c.cutLo, c.cutHi, sc)
		c.probed = true
	}
	return c.interProb
}

// interProb returns the probability (under uniform queries) that a query in
// the current space falls in the interlocking band [cutLo, cutHi] shared by
// both subspaces. The ids arrive in the evaluated style's sort order, so
// the float accumulation order — and the resulting probability down to the
// last bit — is a pure function of the subdivision and style.
func (b *builder) interProb(ids []int32, d Dimension, cutLo, cutHi float64, sc *buildScratch) float64 {
	if cutHi <= cutLo {
		return 0
	}
	var total, band float64
	for _, id := range ids {
		poly := b.sub.Regions[id].Poly
		total += b.spans[id].area
		cp := sc.poly[:0]
		for _, p := range poly {
			cp = append(cp, canon(d, p))
		}
		sc.poly = cp
		band += geom.ClipAreaVerticalBand(cp.EnsureCCW(), cutLo, cutHi, &sc.band)
	}
	if total <= 0 {
		return 0
	}
	return band / total
}

// weightedSplit is the leftCount sentinel selecting the weighted-median
// cut computed per style inside evaluate.
const weightedSplit = -1

// choosePartition evaluates every enabled style for the current space and
// picks the one with the smallest partition size, breaking ties by the
// lowest inter-prob (Section 4.2). Each style reads its pre-sorted id order
// straight from the subset (the reference path re-sorts instead).
func (b *builder) choosePartition(sub subset, sc *buildScratch) (candidate, error) {
	n := len(sub[b.keys[0]])
	half := n / 2
	counts := []int{half}
	if n%2 == 1 {
		counts = []int{(n + 1) / 2, (n - 1) / 2}
	}
	if b.opts.weights != nil {
		counts = []int{weightedSplit}
	}
	var styles []style
	for _, dim := range b.opts.dims {
		for _, byMax := range b.opts.sortKeys {
			for _, k := range counts {
				styles = append(styles, style{dim: dim, sortByMax: byMax, leftCount: k})
			}
		}
	}

	// Score every style; the winner's kept segments stay in sc.best while
	// later styles overwrite sc.kept, and only the winner is chained.
	var best candidate
	found := false
	var firstErr error
	for _, st := range styles {
		sorted := sub[keyIdx(st.dim, st.sortByMax)]
		if b.opts.perNodeSort {
			sorted = b.resort(sub[b.keys[0]], st)
		}
		cand, err := b.evaluate(sorted, st, sc)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !found ||
			cand.points < best.points ||
			(cand.points == best.points && b.opts.tieBreak && b.candProb(&cand, sc) < b.candProb(&best, sc)-1e-12) {
			best, found = cand, true
			sc.kept, sc.best = sc.best, sc.kept
		}
	}
	if !found {
		return candidate{}, fmt.Errorf("core: no valid partition for %d regions: %w", n, firstErr)
	}
	if best.points > 0 {
		best.polylines = sc.chain.Chain(sc.best)
		for _, pl := range best.polylines {
			for j, p := range pl {
				pl[j] = uncanon(best.style.dim, p)
			}
		}
	}
	return best, nil
}

// resort re-derives a style's sorted order from scratch for the current
// space: the per-node reference path the propagated orders are verified
// against in TestPresortedOrdersMatchPerNodeSort.
func (b *builder) resort(ids []int32, st style) []int32 {
	k := keyIdx(st.dim, st.sortByMax)
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(x, y int) bool {
		vx, vy := b.spans[out[x]].keyVal(k), b.spans[out[y]].keyVal(k)
		if vx != vy {
			return vx < vy
		}
		return out[x] < out[y]
	})
	return out
}
