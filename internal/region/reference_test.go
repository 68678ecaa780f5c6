package region

import (
	"fmt"
	"math"
	"sort"

	"airindex/internal/geom"
)

// BoundarySegments is BoundarySegmentsInto with fresh scratch and output.
func (s *Subdivision) BoundarySegments(ids []int) []geom.Segment {
	var sc BoundaryScratch
	return s.BoundarySegmentsInto(ids, &sc, nil)
}

// Ring returns the canonical vertex-index ring of region id.
func (s *Subdivision) Ring(id int) []int { return s.rings[id] }

// SharedBorder returns the segments separating the two given region sets:
// edges owned by a region in left whose twin belongs to a region in right.
func (s *Subdivision) SharedBorder(left, right []int) []geom.Segment {
	inRight := make(map[int32]bool, len(right))
	for _, id := range right {
		inRight[int32(s.Key(id))] = true
	}
	var out []geom.Segment
	for _, id := range left {
		ring := s.rings[id]
		nbr := s.nbrKey[id]
		n := len(ring)
		for j := 0; j < n; j++ {
			if k := nbr[j]; k >= 0 && inRight[k] {
				out = append(out, geom.Segment{A: s.Verts[ring[j]], B: s.Verts[ring[(j+1)%n]]})
			}
		}
	}
	return out
}

// NewFinePatcher returns a Patcher whose bucket grid is sized for sites
// sites up front; Patch keeps it while the live set is smaller.
func NewFinePatcher(area geom.Rect) *Patcher {
	p := NewPatcher(area)
	p.regrid(int(area.W() * area.H() / (32 * p.tol * p.tol)))
	return p
}

// The reference weld: the map-keyed welder, New and Patcher that the flat
// Patcher replaced, kept verbatim as the oracle of the property tests.
// RefNew, RefPatcher and RefValidate are exported for the external test
// package (patch_property_test.go), which imports testutil and voronoi.

// refWelder merges points that lie within tol of each other into canonical
// vertices. It hashes points to a grid of cell size tol and checks the 3x3
// neighborhood, so any two points within tol land in adjacent cells and are
// guaranteed to be compared.
type refWelder struct {
	tol  float64
	grid map[[2]int64][]int
	pts  []geom.Point
}

func newRefWelder(tol float64) *refWelder {
	return &refWelder{tol: tol, grid: make(map[[2]int64][]int)}
}

func (w *refWelder) cell(p geom.Point) [2]int64 {
	return [2]int64{int64(math.Floor(p.X / w.tol)), int64(math.Floor(p.Y / w.tol))}
}

// add returns the canonical vertex index for p, creating one if no existing
// vertex lies within tol.
func (w *refWelder) add(p geom.Point) int {
	c := w.cell(p)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, id := range w.grid[[2]int64{c[0] + dx, c[1] + dy}] {
				q := w.pts[id]
				if math.Abs(q.X-p.X) <= w.tol && math.Abs(q.Y-p.Y) <= w.tol {
					return id
				}
			}
		}
	}
	id := len(w.pts)
	w.pts = append(w.pts, p)
	w.grid[c] = append(w.grid[c], id)
	return id
}

// points returns the canonical vertex slice.
func (w *refWelder) points() []geom.Point { return w.pts }

// RefNew is New as it welded before the flat Patcher: one map-keyed weld
// over every polygon in order. Polygons are deduplicated,
// forced counter-clockwise, and their vertices welded. The i-th polygon
// becomes region ID i.
func RefNew(area geom.Rect, polys []geom.Polygon, opts ...Option) (*Subdivision, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	if len(polys) == 0 {
		return nil, fmt.Errorf("region: no polygons")
	}
	cleaned := make([]geom.Polygon, len(polys))
	for i, pg := range polys {
		c := pg.Clone().Dedup().EnsureCCW()
		if len(c) < 3 {
			return nil, fmt.Errorf("region: polygon %d degenerate after dedup (%d vertices)", i, len(c))
		}
		cleaned[i] = c
	}

	w := newRefWelder(DefaultWeldTol)
	rings := make([][]int, len(cleaned))
	for i, pg := range cleaned {
		ring := make([]int, 0, len(pg))
		for _, p := range pg {
			id := w.add(p)
			if n := len(ring); n > 0 && ring[n-1] == id {
				continue // welding collapsed consecutive vertices
			}
			ring = append(ring, id)
		}
		for len(ring) > 1 && ring[0] == ring[len(ring)-1] {
			ring = ring[:len(ring)-1]
		}
		if len(ring) < 3 {
			return nil, fmt.Errorf("region: polygon %d degenerate after welding", i)
		}
		rings[i] = ring
	}
	verts := w.points()

	if cfg.insertCol {
		rings = insertTJunctions(verts, rings)
	}

	s := &Subdivision{
		Area:  area,
		Verts: verts,
		rings: rings,
		twin:  make(map[[2]int]int),
	}
	s.Regions = make([]Region, len(rings))
	for i, ring := range rings {
		poly := make(geom.Polygon, len(ring))
		for j, v := range ring {
			poly[j] = verts[v]
		}
		s.Regions[i] = Region{ID: i, Poly: poly}
		for j := range ring {
			u, v := ring[j], ring[(j+1)%len(ring)]
			if prev, dup := s.twin[[2]int{u, v}]; dup {
				return nil, fmt.Errorf("region: directed edge (%d,%d) owned by both region %d and %d", u, v, prev, i)
			}
			s.twin[[2]int{u, v}] = i
		}
	}
	s.maxKey = int32(len(rings)) - 1
	s.nbrKey = make([][]int32, len(rings))
	for i, ring := range rings {
		nbr := make([]int32, len(ring))
		for j := range ring {
			nbr[j] = int32(s.Neighbor(ring[j], ring[(j+1)%len(ring)]))
		}
		s.nbrKey[i] = nbr
	}
	return s, nil
}

// Patcher maintains a canonical Subdivision across generations of a slowly
// changing polygon set (the live Voronoi cells), rebuilding only the welded
// neighborhood a batch of cell updates touches instead of re-welding the
// whole tiling. The patched result is coordinate-identical to what New
// would produce on the full new polygon set — same canonical vertex
// coordinates, same collapsed rings, same region polygons — differing only
// in internal vertex numbering, which nothing downstream observes (the
// D-tree marshal and all boundary extraction work on coordinates).
//
// Why this is exact: New's welder assigns each raw point to the first
// canonical vertex within the weld tolerance, scanning points in global
// order (region index ascending, ring position ascending). Weld outcomes
// therefore only couple points that are chained within tolerance of each
// other. A patch floods the tolerance-proximity component of every changed
// point (old and new), un-welds exactly those points, and replays them in
// the same global order against the surviving canonical vertices. Points
// outside the component cannot match any component vertex (a match implies
// tolerance-adjacency to the vertex's founding point, which would have
// pulled it into the component), so the replay reproduces the from-scratch
// assignment for every point, changed or not.
//
// A Patcher is not safe for concurrent use. Subdivisions it returns remain
// valid after further patches: unchanged regions share their ring and
// polygon slices across generations, the vertex slab is append-only until
// compactVerts moves the live vertices into a fresh one (the rule the flat
// Patcher applies, so the two number vertices alike), and per-region
// neighbor arrays are copied on write.
type RefPatcher struct {
	area geom.Rect
	tol  float64

	// Per-site state, indexed by stable site key.
	live   []bool
	pts    [][]geom.Point // cleaned raw ring points (post Dedup+EnsureCCW)
	assign [][]int32      // canonical vertex id per raw point
	ring   [][]int        // collapsed canonical ring
	nbr    [][]int32      // neighbor site key per ring edge (-1 border)
	poly   []geom.Polygon // canonical polygon (ring coordinates)

	verts   []geom.Point // canonical vertex slab (may hold dead entries)
	vertCnt []int32      // live point references per vertex; 0 = dead

	vgrid map[[2]int64][]int32   // weld grid: cell -> live canonical vertex ids
	pgrid map[[2]int64][]refPref // point grid: cell -> live raw point refs

	edgeOwner map[[2]int32]int32 // directed vertex edge -> owning site key

	broken bool
}

type refPref struct{ site, idx int32 }

// NewRefPatcher returns an empty RefPatcher; the first Patch call (with every key
// dirty) bootstraps it, replaying the full tiling exactly as New welds it.
func NewRefPatcher(area geom.Rect) *RefPatcher {
	return &RefPatcher{
		area:      area,
		tol:       DefaultWeldTol,
		vgrid:     make(map[[2]int64][]int32),
		pgrid:     make(map[[2]int64][]refPref),
		edgeOwner: make(map[[2]int32]int32),
	}
}

func (p *RefPatcher) cellOf(pt geom.Point) [2]int64 {
	return [2]int64{int64(math.Floor(pt.X / p.tol)), int64(math.Floor(pt.Y / p.tol))}
}

// weldAdd mirrors refWelder.add exactly: first canonical vertex within the
// tolerance box wins, scanning the 3x3 cell neighborhood in fixed order and
// each cell's vertex list in insertion order.
func (p *RefPatcher) weldAdd(pt geom.Point) int32 {
	c := p.cellOf(pt)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, vid := range p.vgrid[[2]int64{c[0] + dx, c[1] + dy}] {
				q := p.verts[vid]
				if math.Abs(q.X-pt.X) <= p.tol && math.Abs(q.Y-pt.Y) <= p.tol {
					return vid
				}
			}
		}
	}
	vid := int32(len(p.verts))
	p.verts = append(p.verts, pt)
	p.vertCnt = append(p.vertCnt, 0)
	p.vgrid[c] = append(p.vgrid[c], vid)
	return vid
}

func (p *RefPatcher) vgridRemove(vid int32) {
	c := p.cellOf(p.verts[vid])
	list := p.vgrid[c]
	for i, x := range list {
		if x == vid {
			p.vgrid[c] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

func (p *RefPatcher) pgridRemove(r refPref) {
	c := p.cellOf(p.pts[r.site][r.idx])
	list := p.pgrid[c]
	for i, x := range list {
		if x == r {
			p.pgrid[c] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// compactVerts applies the flat Patcher's slab bound: when dead vertices
// outnumber live ones more than deadFactor to one, the live ones move, in
// id order, to a fresh slab, and every vertex id held — weld grid, point
// assignments, rings (copied), edge owners — is renumbered.
func (p *RefPatcher) compactVerts() {
	live := 0
	for _, c := range p.vertCnt {
		if c > 0 {
			live++
		}
	}
	if len(p.verts)-live <= deadFactor*live {
		return
	}
	remap := make([]int32, len(p.verts))
	var verts []geom.Point
	var cnt []int32
	for v, c := range p.vertCnt {
		if c > 0 {
			remap[v] = int32(len(verts))
			verts = append(verts, p.verts[v])
			cnt = append(cnt, c)
		}
	}
	p.verts, p.vertCnt = verts, cnt
	for c, ids := range p.vgrid {
		moved := make([]int32, len(ids))
		for i, v := range ids {
			moved[i] = remap[v]
		}
		p.vgrid[c] = moved
	}
	for k := range p.live {
		if !p.live[k] {
			continue
		}
		for i, v := range p.assign[k] {
			p.assign[k][i] = remap[v]
		}
		ring := make([]int, len(p.ring[k]))
		for j, v := range p.ring[k] {
			ring[j] = int(remap[v])
		}
		p.ring[k] = ring
	}
	owners := make(map[[2]int32]int32, len(p.edgeOwner))
	for e, k := range p.edgeOwner {
		owners[[2]int32{remap[e[0]], remap[e[1]]}] = k
	}
	p.edgeOwner = owners
}

func (p *RefPatcher) grow(maxKey int) {
	for len(p.live) <= maxKey {
		p.live = append(p.live, false)
		p.pts = append(p.pts, nil)
		p.assign = append(p.assign, nil)
		p.ring = append(p.ring, nil)
		p.nbr = append(p.nbr, nil)
		p.poly = append(p.poly, nil)
	}
}

// Patch advances the tiling one generation. keys and polys are the full
// live set in ascending key order with the current raw polygons; dirty is
// the ascending keys whose raw polygon changed or that were inserted this
// generation; removed is the ascending keys deleted this generation. It
// returns the new Subdivision (region order = key order) and the ascending
// keys whose canonical polygon actually changed — the dirty set downstream
// index patching needs, which can both shrink (welding absorbed a sub-
// tolerance wiggle) and grow (a neighbor's canonical corner moved) relative
// to the raw dirty set. On error the Patcher is broken and must be
// replaced.
func (p *RefPatcher) Patch(keys []int, polys []geom.Polygon, dirty, removed []int) (*Subdivision, []int, error) {
	if p.broken {
		return nil, nil, fmt.Errorf("region: patcher broken by earlier failure")
	}
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("region: no polygons")
	}
	fail := func(err error) (*Subdivision, []int, error) {
		p.broken = true
		return nil, nil, err
	}
	maxKey := keys[len(keys)-1]
	for _, k := range removed {
		if k > maxKey {
			maxKey = k
		}
	}
	p.grow(maxKey)

	// 1. Clean the new polygons of dirty sites, exactly as New does.
	cleaned := make(map[int]geom.Polygon, len(dirty))
	pos := 0
	for _, k := range dirty {
		for pos < len(keys) && keys[pos] < k {
			pos++
		}
		if pos >= len(keys) || keys[pos] != k {
			return fail(fmt.Errorf("region: dirty key %d not live", k))
		}
		c := polys[pos].Clone().Dedup().EnsureCCW()
		if len(c) < 3 {
			return fail(fmt.Errorf("region: polygon of key %d degenerate after dedup (%d vertices)", k, len(c)))
		}
		cleaned[k] = c
	}

	dirtySet := make(map[int32]bool, len(dirty))
	for _, k := range dirty {
		dirtySet[int32(k)] = true
	}
	removedSet := make(map[int32]bool, len(removed))
	for _, k := range removed {
		if !p.live[k] {
			return fail(fmt.Errorf("region: removed key %d not live", k))
		}
		removedSet[int32(k)] = true
	}

	// 2. Flood the tolerance-proximity component of every changed point.
	// Seeds: the old points of dirty and removed sites (they leave the
	// welder) and the new points of dirty sites (they enter it). The
	// closure is over the current point set: any live point within the
	// tolerance box of a component point joins, transitively.
	marked := make(map[refPref]bool)
	var queue []geom.Point
	for _, k := range append(append([]int(nil), dirty...), removed...) {
		if !p.live[k] {
			continue // inserted this generation: no old points
		}
		for idx := range p.pts[k] {
			r := refPref{int32(k), int32(idx)}
			if !marked[r] {
				marked[r] = true
				queue = append(queue, p.pts[k][idx])
			}
		}
	}
	for _, k := range dirty {
		queue = append(queue, cleaned[k]...)
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		cc := p.cellOf(c)
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, r := range p.pgrid[[2]int64{cc[0] + dx, cc[1] + dy}] {
					if marked[r] {
						continue
					}
					q := p.pts[r.site][r.idx]
					if math.Abs(q.X-c.X) <= p.tol && math.Abs(q.Y-c.Y) <= p.tol {
						marked[r] = true
						queue = append(queue, q)
					}
				}
			}
		}
	}

	// 3. The rebuild set: dirty sites plus every clean site owning a
	// component point (its assignments must be replayed even if its
	// polygon ends up unchanged).
	rebuildSet := make(map[int32]bool, len(dirty))
	for _, k := range dirty {
		rebuildSet[int32(k)] = true
	}
	for r := range marked {
		if !dirtySet[r.site] && !removedSet[r.site] {
			rebuildSet[r.site] = true
		}
	}
	rebuild := make([]int32, 0, len(rebuildSet))
	for k := range rebuildSet {
		rebuild = append(rebuild, k)
	}
	sort.Slice(rebuild, func(i, j int) bool { return rebuild[i] < rebuild[j] })

	// 4. Un-weld the component: release every marked point's vertex
	// reference; vertices with no references left leave the weld grid.
	for r := range marked {
		v := p.assign[r.site][r.idx]
		p.vertCnt[v]--
		if p.vertCnt[v] == 0 {
			p.vgridRemove(v)
		}
		p.pgridRemove(r)
	}

	// 5. Delete the old directed edges of every region being rebuilt or
	// removed (their rings are about to change), remembering them so step 8
	// can detect clean regions whose across-the-edge owner changed.
	type edgeKey = [2]int32
	var deleted []edgeKey
	for _, k := range rebuild {
		if !p.live[k] {
			continue
		}
		ring := p.ring[k]
		for j := range ring {
			e := edgeKey{int32(ring[j]), int32(ring[(j+1)%len(ring)])}
			delete(p.edgeOwner, e)
			deleted = append(deleted, e)
		}
	}
	for _, k := range removed {
		ring := p.ring[k]
		for j := range ring {
			e := edgeKey{int32(ring[j]), int32(ring[(j+1)%len(ring)])}
			delete(p.edgeOwner, e)
			deleted = append(deleted, e)
		}
	}

	// Retire removed sites (their points were all marked, hence released).
	for _, k := range removed {
		p.live[k] = false
		p.pts[k], p.assign[k], p.ring[k], p.nbr[k], p.poly[k] = nil, nil, nil, nil, nil
	}

	// 6. Replay the component in global scan order (site key ascending,
	// ring position ascending) — the order New welds in — so first-match
	// outcomes are reproduced exactly.
	oldPoly := make(map[int32]geom.Polygon, len(rebuild))
	for _, k := range rebuild {
		if p.live[k] {
			oldPoly[k] = p.poly[k]
		}
		if dirtySet[k] {
			p.pts[k] = cleaned[int(k)]
			p.assign[k] = make([]int32, len(p.pts[k]))
			for idx := range p.pts[k] {
				pt := p.pts[k][idx]
				vid := p.weldAdd(pt)
				p.assign[k][idx] = vid
				p.vertCnt[vid]++
				p.pgrid[p.cellOf(pt)] = append(p.pgrid[p.cellOf(pt)], refPref{k, int32(idx)})
			}
			p.live[k] = true
			continue
		}
		// Clean site with marked points: replay just those assignments.
		var idxs []int
		for idx := range p.pts[k] {
			if marked[refPref{k, int32(idx)}] {
				idxs = append(idxs, idx)
			}
		}
		for _, idx := range idxs {
			pt := p.pts[k][idx]
			vid := p.weldAdd(pt)
			p.assign[k][idx] = vid
			p.vertCnt[vid]++
			p.pgrid[p.cellOf(pt)] = append(p.pgrid[p.cellOf(pt)], refPref{k, int32(idx)})
		}
	}

	// 7. Rebuild rings, polygons, and edges for the rebuild set, collapsing
	// welded duplicates exactly as New does.
	var canonDirty []int
	for _, k := range rebuild {
		ring := make([]int, 0, len(p.pts[k]))
		for _, vid := range p.assign[k] {
			if n := len(ring); n > 0 && ring[n-1] == int(vid) {
				continue
			}
			ring = append(ring, int(vid))
		}
		for len(ring) > 1 && ring[0] == ring[len(ring)-1] {
			ring = ring[:len(ring)-1]
		}
		if len(ring) < 3 {
			return fail(fmt.Errorf("region: polygon of key %d degenerate after welding", k))
		}
		p.ring[k] = ring
		poly := make(geom.Polygon, len(ring))
		for j, v := range ring {
			poly[j] = p.verts[v]
		}
		p.poly[k] = poly
		for j := range ring {
			e := edgeKey{int32(ring[j]), int32(ring[(j+1)%len(ring)])}
			if prev, dup := p.edgeOwner[e]; dup {
				return fail(fmt.Errorf("region: directed edge (%d,%d) owned by both key %d and %d", e[0], e[1], prev, k))
			}
			p.edgeOwner[e] = k
		}
		if !polyEqual(poly, oldPoly[k]) {
			canonDirty = append(canonDirty, int(k))
		}
	}

	// 8. Neighbor keys for rebuilt regions, plus copy-on-write fix-ups on
	// clean regions whose across-the-edge owner changed (the old owner was
	// necessarily rebuilt or removed, so every such edge is visible here).
	cowed := make(map[int32]bool)
	cow := func(t int32) {
		if !cowed[t] {
			p.nbr[t] = append([]int32(nil), p.nbr[t]...)
			cowed[t] = true
		}
	}
	setNbr := func(t int32, v, u int, owner int32) {
		ring := p.ring[t]
		for j := range ring {
			if ring[j] == v && ring[(j+1)%len(ring)] == u {
				if p.nbr[t][j] != owner {
					cow(t)
					p.nbr[t][j] = owner
				}
				return
			}
		}
	}
	for _, k := range rebuild {
		ring := p.ring[k]
		nbr := make([]int32, len(ring))
		for j := range ring {
			u, v := ring[j], ring[(j+1)%len(ring)]
			t, ok := p.edgeOwner[edgeKey{int32(v), int32(u)}]
			if !ok {
				nbr[j] = -1
				continue
			}
			nbr[j] = t
			if !rebuildSet[t] {
				setNbr(t, v, u, k) // clean neighbor: make its back-reference agree
			}
		}
		p.nbr[k] = nbr
	}
	// Deleted edges that were not re-covered: the clean twin now borders
	// nothing (cannot happen in a valid tiling, but keep the relation
	// coherent rather than stale).
	for _, e := range deleted {
		if _, ok := p.edgeOwner[e]; ok {
			continue
		}
		if t, ok := p.edgeOwner[edgeKey{e[1], e[0]}]; ok && !rebuildSet[t] {
			setNbr(t, int(e[0]), int(e[1]), -1)
		}
	}

	p.compactVerts()

	// 9. Assemble the new generation. Clean regions share ring, polygon,
	// and neighbor slices with prior generations.
	n := len(keys)
	sub := &Subdivision{
		Area:    p.area,
		Regions: make([]Region, n),
		Verts:   p.verts[:len(p.verts):len(p.verts)],
		rings:   make([][]int, n),
		keyOf:   make([]int32, n),
		maxKey:  int32(len(p.live)) - 1,
		nbrKey:  make([][]int32, n),
	}
	for i, k := range keys {
		if !p.live[k] {
			return fail(fmt.Errorf("region: live key %d has no cell", k))
		}
		sub.Regions[i] = Region{ID: i, Poly: p.poly[k]}
		sub.rings[i] = p.ring[k]
		sub.keyOf[i] = int32(k)
		sub.nbrKey[i] = p.nbr[k]
	}
	sort.Ints(canonDirty)
	return sub, canonDirty, nil
}

// RefValidate is Validate as it checked before, against a transient
// directed-edge map instead of nbrKey.
func (s *Subdivision) RefValidate() error {
	// A transient map, not ensureTwin: caching it would pin the map to
	// every patched subdivision a compile validates, which defer it.
	twin := s.edgeOwners()
	var sum float64
	for i := range s.Regions {
		a := s.Regions[i].Poly.SignedArea()
		if a <= 0 {
			return fmt.Errorf("region %d: not counter-clockwise (signed area %g)", i, a)
		}
		sum += a
	}
	total := s.Area.Area()
	if rel := math.Abs(sum-total) / total; rel > 1e-6 {
		return fmt.Errorf("regions cover %.9g of service area %.9g (relative gap %.3g)", sum, total, rel)
	}
	for e, owner := range twin {
		if _, ok := twin[[2]int{e[1], e[0]}]; ok {
			continue // interior edge with a twin
		}
		// Boundary edge: both endpoints must lie on the service-area border.
		for _, vid := range e {
			p := s.Verts[vid]
			if !onRectBorder(p, s.Area) {
				return fmt.Errorf("region %d: unmatched edge (%d,%d) with vertex %v off the service-area border", owner, e[0], e[1], p)
			}
		}
	}
	return nil
}
