// Package voronoi constructs the Voronoi diagram of a set of point sites
// clipped to a rectangular service area. The paper derives the valid scopes
// of nearest-neighbor data instances this way (Section 5): the cell of site
// i is exactly the region where i is the correct answer.
//
// Cells are built independently per site by intersecting the service-area
// rectangle with the dominance half-plane of the site against other sites,
// visited nearest-first so a radius early-exit prunes everything beyond the
// cell's reach. Candidates are enumerated through a uniform grid over the
// sites (expanding-ring search), so on uniform or mildly clustered datasets
// each site touches only its O(1) neighborhood and the whole diagram costs
// O(N) expected cell clips; the worst case (all sites crowded into one grid
// bucket) degrades to the sorted O(N^2 log N) scan of small datasets, which
// is also the fallback used below gridMinSites.
package voronoi

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"airindex/internal/geom"
	"airindex/internal/region"
)

// gridMinSites is the site count below which Cells skips grid
// dimensioning and enumerates candidates from one bucket holding every
// site — a single (distance, id) sort per cell: at these sizes the full
// sort is cheaper than the ring search.
const gridMinSites = 32

// Cells computes the clipped Voronoi cell of every site. The i-th returned
// polygon is the valid scope of sites[i]. Sites must be distinct and lie
// inside the area.
func Cells(area geom.Rect, sites []geom.Point) ([]geom.Polygon, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("voronoi: no sites")
	}
	for i, s := range sites {
		if !area.Contains(s) {
			return nil, fmt.Errorf("voronoi: site %d (%v) outside service area", i, s)
		}
	}
	if len(sites) < gridMinSites {
		return cellsSorted(area, sites)
	}
	return cellsGrid(area, sites)
}

// cellsGrid builds every cell through one shared, dimensioned site grid.
// The grid's (distance, id) enumeration order matches the sorted path
// exactly, so both produce identical polygons; TestCellsGridMatchesSorted
// pins that.
func cellsGrid(area geom.Rect, sites []geom.Point) ([]geom.Polygon, error) {
	cells, _, err := buildCells(area, sites, newSiteGrid(area, sites), false)
	return cells, err
}

// cellsSorted is the direct path for small or degenerate site sets: every
// site in one bucket, so each cell's candidates come from one (distance,
// id) sort of the whole site set, then the same nearest-first clip loop.
func cellsSorted(area geom.Rect, sites []geom.Point) ([]geom.Polygon, error) {
	cells, _, err := buildCells(area, sites, oneBucketGrid(area, sites), false)
	return cells, err
}

// cellChunk is how many consecutive site ids a buildCells worker claims at
// a time: large enough to amortize the claim, small enough to balance.
const cellChunk = 64

// buildCells computes the cell of every site in sites through the shared
// grid g, on GOMAXPROCS workers that claim chunks of consecutive ids and
// write each result into its id's slot, so the output does not depend on
// scheduling. With withMeta it also returns each cell's build metadata.
// On failure it returns the error of the lowest failing id — the one a
// serial loop over the ids would stop at: every id below it succeeds and
// is computed, and each worker claims chunks in increasing id order and
// stops at its own first failure.
func buildCells(area geom.Rect, sites []geom.Point, g *siteGrid, withMeta bool) ([]geom.Polygon, []cellMeta, error) {
	n := len(sites)
	cells := make([]geom.Polygon, n)
	var metas []cellMeta
	if withMeta {
		metas = make([]cellMeta, n)
	}
	workers := min(runtime.GOMAXPROCS(0), (n+cellChunk-1)/cellChunk)
	failID := make([]int, workers)
	failErr := make([]error, workers)
	var claimed atomic.Int64
	work := func(w int) {
		failID[w] = n
		c := clipper{area: area}
		for {
			lo := int(claimed.Add(cellChunk)) - cellChunk
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+cellChunk, n); i++ {
				var meta *cellMeta
				if withMeta {
					meta = &metas[i]
				}
				cell, err := c.cell(g, sites, i, meta)
				if err != nil {
					failID[w], failErr[w] = i, err
					return
				}
				cells[i] = cell
			}
		}
	}
	if workers <= 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	var err error
	lowest := n
	for w, id := range failID {
		if id < lowest {
			lowest, err = id, failErr[w]
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return cells, metas, nil
}

// clipper runs the nearest-first clip loop — the only cell-clipping loop,
// shared by Cells, NewMaintainer and the Maintainer's updates. It owns the
// candidate buffer and two polygon buffers the clips alternate between, so
// a cell costs one allocation for its final polygon (plus its clip list
// when metadata is recorded). A clipper serves one goroutine.
type clipper struct {
	area    geom.Rect
	cands   []gridCand
	cur     geom.Polygon
	spare   geom.Polygon
	clipped []int32
}

// cell clips the area rectangle by the bisector half-plane of site i
// against the grid's other sites in ascending (distance, id) order,
// stopping at the radius early-exit: a site farther than twice the cell's
// max distance from its owner cannot cut the cell, and neither can
// anything after it. When meta is non-nil it receives the sites clipped
// against and the squared distance of the break candidate (+Inf when the
// enumeration ran out).
func (c *clipper) cell(g *siteGrid, sites []geom.Point, i int, meta *cellMeta) (geom.Polygon, error) {
	me := sites[i]
	corners := c.area.Corners()
	cell := append(c.cur[:0], corners[:]...)
	c.clipped = c.clipped[:0]
	breakDist2 := math.Inf(1)
	it := g.near(sites, me, c.cands)
	defer func() { c.cands, c.cur = it.buffer(), cell }()
	for {
		j, d2, ok := it.next()
		if !ok {
			break
		}
		if j == i {
			continue
		}
		d := math.Sqrt(d2)
		if d == 0 {
			return nil, fmt.Errorf("voronoi: duplicate sites %d and %d at %v", i, j, me)
		}
		if d/2 > maxDistTo(cell, me) {
			breakDist2 = d2
			break
		}
		next := geom.ClipHalfPlaneInto(c.spare, cell, geom.Bisector(me, sites[j]))
		if next == nil {
			return nil, fmt.Errorf("voronoi: cell of site %d vanished (near-duplicate sites?)", i)
		}
		c.spare, cell = cell, next
		c.clipped = append(c.clipped, int32(j))
	}
	if meta != nil {
		*meta = cellMeta{breakDist2: breakDist2}
		if len(c.clipped) > 0 {
			meta.clipped = slices.Clone(c.clipped)
		}
	}
	return cell.Clone(), nil
}

func maxDistTo(pg geom.Polygon, p geom.Point) float64 {
	var m float64
	for _, q := range pg {
		if d := p.Dist(q); d > m {
			m = d
		}
	}
	return m
}

// Subdivision computes the Voronoi cells of the sites and assembles them
// into a validated region subdivision, the standard way the examples and
// experiments derive valid scopes from a point dataset.
func Subdivision(area geom.Rect, sites []geom.Point) (*region.Subdivision, error) {
	cells, err := Cells(area, sites)
	if err != nil {
		return nil, err
	}
	s, err := region.New(area, cells)
	if err != nil {
		return nil, fmt.Errorf("voronoi: assembling subdivision: %w", err)
	}
	return s, nil
}

// NearestSite returns the index of the site nearest to p by brute force;
// tests use it to cross-check that locating p in the subdivision yields the
// same answer as a direct nearest-neighbor scan, and as ground truth for
// the grid's candidate enumeration.
func NearestSite(sites []geom.Point, p geom.Point) int {
	best, bestD := -1, 0.0
	for i, s := range sites {
		d := p.Dist2(s)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
