package region

import (
	"fmt"
	"math"
	"slices"

	"airindex/internal/geom"
)

// Patcher maintains a canonical Subdivision across generations of a slowly
// changing polygon set (the live Voronoi cells), rebuilding only the welded
// neighborhood a batch of cell updates touches instead of re-welding the
// whole tiling. New is a Patcher's bootstrap, and a patched generation is
// coordinate-identical to New on the full new polygon set (same vertex
// coordinates, rings and polygons); only the vertex numbering differs,
// which nothing downstream observes.
//
// Why this is exact: the weld assigns each raw point to the first
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
// All retained state is flat arrays indexed by site key, raw point and
// vertex; a vertex's raw points chain through the point slab, and that
// incidence answers both the flood's search and directed-edge ownership.
//
// A Patcher is not safe for concurrent use. Subdivisions it returns remain
// valid after further patches: unchanged regions share their ring,
// polygon and neighbor slices across generations, none of which is ever
// modified in place, and the vertex slab is append-only until a compaction
// (compactVerts) moves the live vertices into a fresh slab with fresh rings.
type Patcher struct {
	area geom.Rect
	tol  float64

	// Per-site state, indexed by stable site key. A site is live iff n > 0.
	off  []int32        // first raw point of the site's run in pts
	n    []int32        // raw point count (cleaned ring, post Dedup+EnsureCCW)
	ring [][]int        // collapsed canonical ring
	nbr  [][]int32      // neighbor site key per ring edge (-1 border)
	poly []geom.Polygon // canonical polygon (ring coordinates)

	pts []rawPt // raw-point slab; released runs stay until compact

	verts []geom.Point // canonical vertex slab (may hold dead entries)
	vx    []vertex
	live  int // vertices with refs > 0

	// Bucket grid over weld cells (floor(x/tol), floor(y/tol)): cell (cx, cy)
	// hangs in bucket (cx/side mod nx, cy/side mod ny).
	head      []int32
	side      int64
	nx, ny    int64
	gridSites int // sites the grid is sized for

	// Per-call scratch. Marks are epoch-stamped, so nothing is cleared.
	epoch   int32
	sep     []int32 // per site: epoch sfl was written in
	sfl     []uint8 // per site: f* flags of epoch sep
	marked  []int32
	queue   []geom.Point
	clean   geom.Polygon
	rebuild []int32
	runs    [][2]int32 // new run (offset, length) per dirty key

	broken bool
}

type rawPt struct {
	p    geom.Point
	v    int32 // canonical vertex
	next int32 // next raw point welded to v, -1 at the end
	site int32
	mark int32 // epoch the flood marked it in
}

type vertex struct {
	refs  int32 // live raw points welded here; 0 = dead
	first int32 // head of the raw-point chain, -1 if none
	next  int32 // next vertex in the grid bucket, -1 at the end
}

const (
	fDirty uint8 = 1 << iota
	fRemoved
	fRebuild
)

func polyEqual(a, b geom.Polygon) bool { return len(a) > 0 && slices.Equal(a, b) }

// NewPatcher returns an empty Patcher; the first Patch call (with every key
// dirty) bootstraps it.
func NewPatcher(area geom.Rect) *Patcher {
	return &Patcher{area: area, tol: DefaultWeldTol}
}

func (p *Patcher) cellOf(pt geom.Point) (int64, int64) {
	return int64(math.Floor(pt.X / p.tol)), int64(math.Floor(pt.Y / p.tol))
}

func (p *Patcher) near(a, b geom.Point) bool {
	return math.Abs(a.X-b.X) <= p.tol && math.Abs(a.Y-b.Y) <= p.tol
}

func floorDiv(a, b int64) int64 { return (a - (a%b+b)%b) / b }

func (p *Patcher) bucket(bx, by int64) int32 {
	return int32((bx%p.nx+p.nx)%p.nx + p.nx*((by%p.ny+p.ny)%p.ny))
}

// buckets returns the distinct buckets holding the weld cells within r
// cells of (cx, cy): at most 2x2 for r <= 2, as side >= 4 and nx, ny >= 2.
func (p *Patcher) buckets(cx, cy, r int64) (bs [4]int32, n int) {
	for by := floorDiv(cy-r, p.side); by <= floorDiv(cy+r, p.side); by++ {
		for bx := floorDiv(cx-r, p.side); bx <= floorDiv(cx+r, p.side); bx++ {
			bs[n] = p.bucket(bx, by)
			n++
		}
	}
	return bs, n
}

func (p *Patcher) vbucket(v int32) int32 {
	cx, cy := p.cellOf(p.verts[v])
	return p.bucket(floorDiv(cx, p.side), floorDiv(cy, p.side))
}

// regrid sizes the bucket grid for two buckets per site (about one per
// Voronoi vertex) and rehangs the live vertices. Lookups scan whole
// buckets, so the grid shape never changes an outcome.
func (p *Patcher) regrid(sites int) {
	t := float64(2 * sites)
	wc, hc := p.area.W()/p.tol, p.area.H()/p.tol
	p.side = max(4, int64(math.Ceil(max(math.Sqrt(wc*hc/t), (wc+hc)/t))))
	p.nx, p.ny = int64(wc)/p.side+2, int64(hc)/p.side+2
	p.head = make([]int32, p.nx*p.ny)
	p.gridSites = sites
	p.rehang()
}

// rehang empties the bucket grid and hangs the live vertices in it.
func (p *Patcher) rehang() {
	for b := range p.head {
		p.head[b] = -1
	}
	for v := range p.vx {
		if p.vx[v].refs > 0 {
			b := p.vbucket(int32(v))
			p.vx[v].next, p.head[b] = p.head[b], int32(v)
		}
	}
}

// deadFactor bounds the vertex slab: a patch that leaves more than
// deadFactor dead vertices per live one compacts it (compactVerts).
const deadFactor = 2

// compactVerts moves the live vertices, in id order, into a fresh slab and
// renumbers the live sites' points and rings to match. Keeping id order
// keeps the weld rule's smallest-id tie-break, so later welds pick the
// vertices they would have picked. Rings are copied, not rewritten in
// place, and earlier subdivisions keep the old slab.
func (p *Patcher) compactVerts() {
	remap := make([]int32, len(p.verts))
	verts := make([]geom.Point, 0, p.live)
	vx := make([]vertex, 0, p.live)
	for v := range p.vx {
		if p.vx[v].refs > 0 {
			remap[v] = int32(len(verts))
			verts = append(verts, p.verts[v])
			vx = append(vx, p.vx[v])
		}
	}
	p.verts, p.vx = verts, vx
	for k, n := range p.n {
		for id := p.off[k]; id < p.off[k]+n; id++ {
			p.pts[id].v = remap[p.pts[id].v]
		}
		if n > 0 {
			ring := make([]int, len(p.ring[k]))
			for j, v := range p.ring[k] {
				ring[j] = int(remap[v])
			}
			p.ring[k] = ring
		}
	}
	p.rehang()
}

// weldAdd welds raw point id to the canonical vertex the weld rule picks
// and chains it there. The rule: among vertices within the tolerance box
// whose weld cell is in the 3x3 block around the point's, the smallest
// (dx, dy, vertex id) wins — the first match of a scan over the block's
// cells in (dx, dy) order, each cell's vertices in creation order. No match
// founds a new vertex at the point.
func (p *Patcher) weldAdd(id int32) {
	pt := p.pts[id].p
	cx, cy := p.cellOf(pt)
	best, bestKey := int32(-1), int64(0)
	bs, nb := p.buckets(cx, cy, 1)
	for _, b := range bs[:nb] {
		for v := p.head[b]; v >= 0; v = p.vx[v].next {
			if !p.near(p.verts[v], pt) {
				continue
			}
			vx, vy := p.cellOf(p.verts[v])
			dx, dy := vx-cx, vy-cy
			if dx < -1 || dx > 1 || dy < -1 || dy > 1 {
				continue
			}
			if key := 3*dx + dy; best < 0 || key < bestKey || key == bestKey && v < best {
				best, bestKey = v, key
			}
		}
	}
	if best < 0 {
		best = int32(len(p.verts))
		p.verts = append(p.verts, pt)
		p.vx = append(p.vx, vertex{first: -1})
		p.live++
		b := p.vbucket(best)
		p.vx[best].next, p.head[b] = p.head[b], best
	}
	p.pts[id].v, p.pts[id].next = best, p.vx[best].first
	p.vx[best].first = id
	p.vx[best].refs++
}

// unweld unchains raw point id from its vertex; a vertex left with no
// points leaves the grid.
func (p *Patcher) unweld(id int32) {
	v := p.pts[id].v
	at := &p.vx[v].first
	for *at != id {
		at = &p.pts[*at].next
	}
	*at = p.pts[id].next
	if p.vx[v].refs--; p.vx[v].refs == 0 {
		p.live--
		at = &p.head[p.vbucket(v)]
		for *at != v {
			at = &p.vx[*at].next
		}
		*at = p.vx[v].next
	}
}

// owner returns a site owning directed edge u->v and how many ring edges
// u->v all live sites have together. A site's ring leaves u toward v
// wherever one of its raw points welded to u is followed, cyclically, by
// one welded to v, so only u's chain is scanned.
func (p *Patcher) owner(u, v int) (t int32, n int) {
	t = -1
	for id := p.vx[u].first; id >= 0; id = p.pts[id].next {
		s := p.pts[id].site
		next := id + 1
		if next == p.off[s]+p.n[s] {
			next = p.off[s]
		}
		if p.pts[next].v == int32(v) {
			if n == 0 {
				t = s
			}
			n++
		}
	}
	return t, n
}

// compact moves the live sites' runs, in key order, into a fresh slab
// with room for need more points and 1/16 slack, dropping released runs.
func (p *Patcher) compact(need int) {
	live := 0
	for _, n := range p.n {
		live += int(n)
	}
	pts := make([]rawPt, 0, (live+need)*17/16)
	remap := make([]int32, len(p.pts))
	for k, n := range p.n {
		off := int32(len(pts))
		for id := p.off[k]; id < p.off[k]+n; id++ {
			remap[id] = int32(len(pts))
			pts = append(pts, p.pts[id])
		}
		p.off[k] = off
	}
	for i := range pts {
		if pts[i].next >= 0 {
			pts[i].next = remap[pts[i].next]
		}
	}
	for v := range p.vx {
		if p.vx[v].first >= 0 {
			p.vx[v].first = remap[p.vx[v].first]
		}
	}
	p.pts = pts
}

func (p *Patcher) flag(k int32, f uint8) {
	if p.sep[k] != p.epoch {
		p.sep[k], p.sfl[k] = p.epoch, 0
	}
	p.sfl[k] |= f
}

func (p *Patcher) has(k int32, f uint8) bool { return p.sep[k] == p.epoch && p.sfl[k]&f != 0 }

func grow[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
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
func (p *Patcher) Patch(keys []int, polys []geom.Polygon, dirty, removed []int) (*Subdivision, []int, error) {
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
		maxKey = max(maxKey, k)
	}
	sites := maxKey + 1
	p.off, p.n, p.sep, p.sfl = grow(p.off, sites), grow(p.n, sites), grow(p.sep, sites), grow(p.sfl, sites)
	p.ring, p.nbr, p.poly = grow(p.ring, sites), grow(p.nbr, sites), grow(p.poly, sites)
	if 2*p.gridSites < len(keys) { // rehang only when the sites double
		p.regrid(len(keys))
	}
	if p.epoch == math.MaxInt32 {
		for i := range p.pts {
			p.pts[i].mark = 0
		}
		clear(p.sep)
		p.epoch = 0
	}
	p.epoch++
	ep := p.epoch

	// 1. Clean the dirty sites' new polygons into fresh runs.
	p.runs = p.runs[:0]
	need, pos := 0, 0
	for _, k := range dirty {
		for pos < len(keys) && keys[pos] < k {
			pos++
		}
		if pos < len(keys) {
			need += len(polys[pos])
		}
	}
	if len(p.pts)+need > cap(p.pts) {
		p.compact(need)
	}
	pos = 0
	for i, k := range dirty {
		for pos < len(keys) && keys[pos] < k {
			pos++
		}
		if pos >= len(keys) || keys[pos] != k || i > 0 && k <= dirty[i-1] {
			return fail(fmt.Errorf("region: dirty key %d not live", k))
		}
		c := append(p.clean[:0], polys[pos]...).Dedup().EnsureCCW()
		p.clean = c
		if len(c) < 3 {
			return fail(fmt.Errorf("region: polygon of key %d degenerate after dedup (%d vertices)", k, len(c)))
		}
		off := int32(len(p.pts))
		p.pts = append(p.pts, make([]rawPt, len(c))...)
		for j, pt := range c {
			p.pts[off+int32(j)] = rawPt{p: pt, v: -1, next: -1, site: int32(k)}
		}
		p.runs = append(p.runs, [2]int32{off, int32(len(c))})
		p.flag(int32(k), fDirty|fRebuild)
	}
	for _, k := range removed {
		if p.n[k] == 0 {
			return fail(fmt.Errorf("region: removed key %d not live", k))
		}
		p.flag(int32(k), fRemoved)
	}

	// 2. Flood the tolerance-proximity component of every changed point:
	// the old points of dirty and removed sites and the new points of
	// dirty sites seed it; any live point within the tolerance box of a
	// component point, weld cells adjacent, joins, transitively. Its vertex
	// lies within two weld cells (and 3 tol), so those vertices' chains are
	// searched.
	p.marked, p.queue = p.marked[:0], p.queue[:0]
	mark := func(id int32) {
		p.pts[id].mark = ep
		p.marked = append(p.marked, id)
		p.queue = append(p.queue, p.pts[id].p)
	}
	for _, ks := range [2][]int{dirty, removed} {
		for _, k := range ks {
			for id := p.off[k]; id < p.off[k]+p.n[k]; id++ {
				if p.pts[id].mark != ep {
					mark(id)
				}
			}
		}
	}
	for _, r := range p.runs {
		for id := r[0]; id < r[0]+r[1] && len(p.verts) > 0; id++ {
			p.queue = append(p.queue, p.pts[id].p)
		}
	}
	for len(p.queue) > 0 {
		c := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		cx, cy := p.cellOf(c)
		bs, nb := p.buckets(cx, cy, 2)
		for _, b := range bs[:nb] {
			for v := p.head[b]; v >= 0; v = p.vx[v].next {
				if q := p.verts[v]; math.Abs(q.X-c.X) > 3*p.tol || math.Abs(q.Y-c.Y) > 3*p.tol {
					continue
				}
				for id := p.vx[v].first; id >= 0; id = p.pts[id].next {
					if q := p.pts[id].p; p.pts[id].mark != ep && p.near(q, c) {
						if qx, qy := p.cellOf(q); qx-cx >= -1 && qx-cx <= 1 && qy-cy >= -1 && qy-cy <= 1 {
							mark(id)
						}
					}
				}
			}
		}
	}

	// 3. The rebuild set: dirty sites plus every clean site owning a
	// component point (its assignments must be replayed even if its
	// polygon ends up unchanged).
	p.rebuild = p.rebuild[:0]
	for _, k := range dirty {
		p.rebuild = append(p.rebuild, int32(k))
	}
	for _, id := range p.marked {
		if s := p.pts[id].site; !p.has(s, fDirty|fRemoved|fRebuild) {
			p.flag(s, fRebuild)
			p.rebuild = append(p.rebuild, s)
		}
	}
	slices.Sort(p.rebuild)

	// 4. Un-weld the component and retire the removed sites (their runs,
	// like the dirty sites' old ones, are dropped at the next compact).
	for _, id := range p.marked {
		p.unweld(id)
	}
	for _, k := range removed {
		p.n[k], p.ring[k], p.nbr[k], p.poly[k] = 0, nil, nil, nil
	}

	// 5. Replay the component in New's global scan order (site key, then
	// ring position), so first-match outcomes are reproduced exactly.
	d := 0
	for _, k := range p.rebuild {
		if p.has(k, fDirty) {
			for dirty[d] != int(k) {
				d++
			}
			p.off[k], p.n[k] = p.runs[d][0], p.runs[d][1]
		}
		for id := p.off[k]; id < p.off[k]+p.n[k]; id++ {
			if p.pts[id].mark == ep || p.pts[id].v < 0 {
				p.weldAdd(id)
			}
		}
	}

	// 6. Rebuild rings and polygons, collapsing welded duplicates.
	var canonDirty []int
	for _, k := range p.rebuild {
		ring := make([]int, 0, p.n[k])
		for id := p.off[k]; id < p.off[k]+p.n[k]; id++ {
			if v := int(p.pts[id].v); len(ring) == 0 || ring[len(ring)-1] != v {
				ring = append(ring, v)
			}
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
		if !polyEqual(poly, p.poly[k]) {
			canonDirty = append(canonDirty, int(k))
		}
		p.poly[k] = poly
	}

	// 7. Neighbor keys for rebuilt regions. A clean region's keys never
	// change: every vertex it uses kept all its raw points (a marked point
	// welded to a vertex floods, through the vertex's founding point, to
	// every point welded there), so a rebuilt region shares a vertex with a
	// clean one only through its own unmarked points, whose ring edges, and
	// so the clean side's neighbor, are what they were.
	for _, k := range p.rebuild {
		ring := p.ring[k]
		nbr := make([]int32, len(ring))
		for j, u := range ring {
			v := ring[(j+1)%len(ring)]
			if _, n := p.owner(u, v); n > 1 {
				return fail(fmt.Errorf("region: directed edge (%d,%d) of key %d owned %d times", u, v, k, n))
			}
			nbr[j], _ = p.owner(v, u)
		}
		p.nbr[k] = nbr
	}
	if len(p.verts)-p.live > deadFactor*p.live {
		p.compactVerts()
	}

	// 8. Assemble the new generation. Clean regions share polygon and
	// neighbor slices with prior generations, and ring slices too unless a
	// vertex compaction just ran, which gives every live ring a fresh copy.
	n := len(keys)
	sub := &Subdivision{
		Area:    p.area,
		Regions: make([]Region, n),
		Verts:   p.verts[:len(p.verts):len(p.verts)],
		rings:   make([][]int, n),
		keyOf:   make([]int32, n),
		maxKey:  int32(len(p.n)) - 1,
		nbrKey:  make([][]int32, n),
	}
	for i, k := range keys {
		if p.n[k] == 0 {
			return fail(fmt.Errorf("region: live key %d has no cell", k))
		}
		sub.Regions[i] = Region{ID: i, Poly: p.poly[k]}
		sub.rings[i] = p.ring[k]
		sub.keyOf[i] = int32(k)
		sub.nbrKey[i] = p.nbr[k]
	}
	return sub, canonDirty, nil
}
