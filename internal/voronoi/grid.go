package voronoi

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"airindex/internal/geom"
)

// siteGrid buckets sites into a uniform grid over the service area so that
// candidate sites can be enumerated in ascending distance order from any
// query point without sorting the whole site set. Cell construction and the
// incremental Maintainer share it: a cell clip visits candidates
// nearest-first and stops at the radius early-exit, so on uniform or mildly
// clustered datasets each site only ever sees its O(1) grid neighborhood.
//
// Buckets store site ids in ascending order, and the ring iterator breaks
// distance ties by id, so enumeration order — and therefore the clip
// sequence and the resulting polygons — is deterministic and identical to a
// full (distance, id) sort of the site set.
type siteGrid struct {
	area         geom.Rect
	cols, rows   int
	cellW, cellH float64
	buckets      [][]int32
	count        int // live sites currently in the grid
	builtFor     int // size the grid geometry was dimensioned for
}

// newSiteGrid dimensions a grid for about two sites per bucket and inserts
// the given sites. Ids are bucket-appended in increasing order, keeping
// every bucket sorted.
func newSiteGrid(area geom.Rect, sites []geom.Point) *siteGrid {
	g := dimensionGrid(area, len(sites))
	for i, p := range sites {
		b := g.bucketOf(p)
		g.buckets[b] = append(g.buckets[b], int32(i))
	}
	g.count = len(sites)
	return g
}

// oneBucketGrid puts every site in a single bucket: enumeration from any
// point is then one (distance, id) sort of the whole site set.
func oneBucketGrid(area geom.Rect, sites []geom.Point) *siteGrid {
	g := &siteGrid{
		area: area, cols: 1, rows: 1,
		cellW: area.W(), cellH: area.H(),
		buckets: [][]int32{make([]int32, len(sites))},
		count:   len(sites), builtFor: len(sites),
	}
	for i := range sites {
		g.buckets[0][i] = int32(i)
	}
	return g
}

func dimensionGrid(area geom.Rect, n int) *siteGrid {
	if n < 1 {
		n = 1
	}
	cells := float64(n) / 2
	aspect := area.W() / area.H()
	cols := int(math.Round(math.Sqrt(cells * aspect)))
	rows := int(math.Round(math.Sqrt(cells / aspect)))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &siteGrid{
		area: area, cols: cols, rows: rows,
		cellW: area.W() / float64(cols), cellH: area.H() / float64(rows),
		buckets:  make([][]int32, cols*rows),
		builtFor: n,
	}
}

// cellOf returns the (column, row) of p, clamping border points inward.
func (g *siteGrid) cellOf(p geom.Point) (int, int) {
	ci := int((p.X - g.area.MinX) / g.cellW)
	cj := int((p.Y - g.area.MinY) / g.cellH)
	if ci < 0 {
		ci = 0
	} else if ci >= g.cols {
		ci = g.cols - 1
	}
	if cj < 0 {
		cj = 0
	} else if cj >= g.rows {
		cj = g.rows - 1
	}
	return ci, cj
}

func (g *siteGrid) bucketOf(p geom.Point) int {
	ci, cj := g.cellOf(p)
	return cj*g.cols + ci
}

// insert adds a site id at p. Maintainer ids grow monotonically, so a plain
// append preserves the ascending bucket order; anything else falls back to
// an ordered insert.
func (g *siteGrid) insert(id int, p geom.Point) {
	b := g.bucketOf(p)
	bk := g.buckets[b]
	if n := len(bk); n == 0 || bk[n-1] < int32(id) {
		g.buckets[b] = append(bk, int32(id))
	} else {
		at := sort.Search(len(bk), func(i int) bool { return bk[i] >= int32(id) })
		bk = append(bk, 0)
		copy(bk[at+1:], bk[at:])
		bk[at] = int32(id)
		g.buckets[b] = bk
	}
	g.count++
}

// remove deletes a site id located at p.
func (g *siteGrid) remove(id int, p geom.Point) {
	b := g.bucketOf(p)
	bk := g.buckets[b]
	at := sort.Search(len(bk), func(i int) bool { return bk[i] >= int32(id) })
	if at < len(bk) && bk[at] == int32(id) {
		g.buckets[b] = append(bk[:at], bk[at+1:]...)
		g.count--
	}
}

// gridCand is one enumerated candidate: squared distance to the query point
// plus the site id, ordered by (d2, id).
type gridCand struct {
	d2 float64
	id int32
}

// nearIter enumerates the sites in the grid in ascending (distance, id)
// order from a query point. Grid rings (cells at growing Chebyshev distance
// from the query's cell) are loaded lazily: a candidate is only yielded once
// its distance is provably smaller than anything an unexplored ring could
// hold, so the order matches a full sort without ever materializing one.
// The pending buffer can be handed in by the caller for reuse across
// queries.
type nearIter struct {
	g       *siteGrid
	sites   []geom.Point
	p       geom.Point
	ci, cj  int
	r, maxR int
	pending []gridCand
	idx     int
}

// near starts an enumeration from p. scratch (may be nil) is recycled as
// the pending buffer.
func (g *siteGrid) near(sites []geom.Point, p geom.Point, scratch []gridCand) nearIter {
	ci, cj := g.cellOf(p)
	maxR := ci
	if v := g.cols - 1 - ci; v > maxR {
		maxR = v
	}
	if cj > maxR {
		maxR = cj
	}
	if v := g.rows - 1 - cj; v > maxR {
		maxR = v
	}
	return nearIter{g: g, sites: sites, p: p, ci: ci, cj: cj, maxR: maxR, pending: scratch[:0]}
}

// next yields the nearest unvisited site, or ok=false when the grid is
// exhausted.
func (it *nearIter) next() (id int, d2 float64, ok bool) {
	for it.r <= it.maxR {
		if it.idx < len(it.pending) && it.pending[it.idx].d2 < it.ringLB2(it.r) {
			break
		}
		it.loadRing(it.r)
		it.r++
	}
	if it.idx >= len(it.pending) {
		return 0, 0, false
	}
	c := it.pending[it.idx]
	it.idx++
	return int(c.id), c.d2, true
}

// buffer returns the pending slice for reuse in a later near call.
func (it *nearIter) buffer() []gridCand { return it.pending }

// ringLB2 returns a lower bound on the squared distance from the query
// point to any site in a ring >= r: the distance from p to the complement
// of the box of cells within Chebyshev distance r-1 of the query's cell.
func (it *nearIter) ringLB2(r int) float64 {
	if r <= 0 {
		return 0
	}
	g := it.g
	bx0 := g.area.MinX + float64(it.ci-r+1)*g.cellW
	bx1 := g.area.MinX + float64(it.ci+r)*g.cellW
	by0 := g.area.MinY + float64(it.cj-r+1)*g.cellH
	by1 := g.area.MinY + float64(it.cj+r)*g.cellH
	d := it.p.X - bx0
	if v := bx1 - it.p.X; v < d {
		d = v
	}
	if v := it.p.Y - by0; v < d {
		d = v
	}
	if v := by1 - it.p.Y; v < d {
		d = v
	}
	if d <= 0 {
		return 0
	}
	return d * d
}

// loadRing appends every site in the cells at Chebyshev distance exactly r
// and restores the sorted order of the unvisited tail.
func (it *nearIter) loadRing(r int) {
	before := len(it.pending)
	if r == 0 {
		it.loadCell(it.ci, it.cj)
	} else {
		for i := it.ci - r; i <= it.ci+r; i++ {
			it.loadCell(i, it.cj-r)
			it.loadCell(i, it.cj+r)
		}
		for j := it.cj - r + 1; j <= it.cj+r-1; j++ {
			it.loadCell(it.ci-r, j)
			it.loadCell(it.ci+r, j)
		}
	}
	if len(it.pending) == before {
		return
	}
	slices.SortFunc(it.pending[it.idx:], cmpCand)
}

// cmpCand orders candidates by (d2, id), a total order: ids are unique.
func cmpCand(a, b gridCand) int {
	if c := cmp.Compare(a.d2, b.d2); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

func (it *nearIter) loadCell(i, j int) {
	if i < 0 || i >= it.g.cols || j < 0 || j >= it.g.rows {
		return
	}
	for _, id := range it.g.buckets[j*it.g.cols+i] {
		it.pending = append(it.pending, gridCand{d2: it.p.Dist2(it.sites[id]), id: id})
	}
}

// nearestIn returns the grid site nearest to p by (distance, id), or -1 on
// an empty grid — the grid-accelerated counterpart of NearestSite.
func (g *siteGrid) nearestIn(sites []geom.Point, p geom.Point) int {
	it := g.near(sites, p, nil)
	id, _, ok := it.next()
	if !ok {
		return -1
	}
	return id
}
