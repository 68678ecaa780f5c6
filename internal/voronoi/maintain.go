package voronoi

import (
	"fmt"
	"sort"

	"airindex/internal/geom"
	"airindex/internal/region"
)

// Maintainer keeps a set of Voronoi valid scopes up to date as data
// instances appear and disappear between broadcast cycles, recomputing only
// the affected cells. Site ids are stable (removal leaves a tombstone, and
// Move keeps the id in place), so the broadcast server can keep bucket
// numbering consistent and downstream consumers can use the id as a stable
// key across generations.
//
// Every touched cell is rebuilt from scratch through the same nearest-first
// clip sequence Cells uses, and per-cell build metadata (cellMeta) decides
// exactly which cells an update can touch, so maintained cells are
// bit-identical to a full rebuild of the live site set — the invariant the
// live broadcast swap (fabric.Swapper) relies on, pinned by
// TestMaintainerBitIdenticalProperty.
//
// The maintainer additionally reports, per batch (BeginBatch/BatchDelta),
// exactly which live cells' polygon bytes changed — a rebuilt cell whose
// vertices come out identical is not dirty — which is what makes the
// incremental index rebuild downstream (core.Incremental) cheap: the dirty
// set after a small batch is the touched neighborhood, not the diagram.
type Maintainer struct {
	area  geom.Rect
	sites []geom.Point
	cells []geom.Polygon
	meta  []cellMeta
	alive []bool
	n     int // alive count

	// breaks mirrors meta[j].breakDist2 in a flat array so the Add/Move
	// affected-cell scan is one cache-friendly pass.
	breaks []float64
	// clippedBy[s] lists the cells whose clip sequence includes site s —
	// the reverse of meta[j].clipped — so Remove/Move find their affected
	// set in O(degree) instead of scanning every live cell's metadata.
	clippedBy [][]int32

	// Batch-dirty tracking (BeginBatch / BatchDelta).
	dirtyMark  []int32 // per site id, stamped with dirtyEpoch when dirty
	dirtyEpoch int32
	dirtyList  []int
	baseAlive  []bool // alive[] snapshot at BeginBatch
	removed    []int  // ids live at BeginBatch, dead now

	grid *siteGrid
	clip clipper // buffers of the serial clip loop the updates run
}

// cellMeta records how a cell was built: the candidate sites actually
// clipped against (in nearest-first order) and the squared distance of the
// candidate that triggered the radius early-exit (+Inf when the enumeration
// was exhausted, in which case every live site is in clipped). Together
// they characterize exactly which site mutations can alter the cell's
// bytes:
//
//   - every clipped candidate lies strictly nearer than the break
//     candidate, and breakDist/2 exceeds the final cell's circumradius, so
//     a site added at or beyond the break distance is never clipped and
//     leaves the nearest-first clip sequence — hence the exact float64
//     vertices — untouched;
//   - a removed site the cell never clipped was enumerated at or after the
//     break (or never), so removing it cannot change the sequence either.
//
// Cells failing these tests are rebuilt from scratch, which re-establishes
// exact metadata for the new site set.
type cellMeta struct {
	clipped    []int32
	breakDist2 float64
}

// Area returns the service area the diagram tiles.
func (m *Maintainer) Area() geom.Rect { return m.area }

// NewMaintainer builds the initial diagram.
func NewMaintainer(area geom.Rect, sites []geom.Point) (*Maintainer, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("voronoi: no sites")
	}
	for i, s := range sites {
		if !area.Contains(s) {
			return nil, fmt.Errorf("voronoi: site %d (%v) outside service area", i, s)
		}
	}
	m := &Maintainer{
		area:      area,
		sites:     append([]geom.Point(nil), sites...),
		cells:     make([]geom.Polygon, len(sites)),
		meta:      make([]cellMeta, len(sites)),
		alive:     make([]bool, len(sites)),
		breaks:    make([]float64, len(sites)),
		clippedBy: make([][]int32, len(sites)),
		dirtyMark: make([]int32, len(sites)),
		n:         len(sites),
		grid:      newSiteGrid(area, sites),
		clip:      clipper{area: area},
	}
	for i := range m.alive {
		m.alive[i] = true
	}
	// Cells are computed in parallel into per-id slots, then installed in
	// id order, so the reverse clip index and the dirty list come out
	// exactly as a serial id-order loop would leave them.
	cells, metas, err := buildCells(area, m.sites, m.grid, true)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		m.setCell(i, cells[i], metas[i])
	}
	m.BeginBatch()
	return m, nil
}

// setCell installs a freshly computed cell, maintaining the reverse clip
// index, the flat break-distance mirror, and the batch-dirty set. When the
// rebuilt polygon is bit-identical to the current one, the old slice is
// kept (so downstream pointer comparisons keep working) and the cell is not
// marked dirty; the metadata is still replaced, because an identical
// polygon can arise from a different clip sequence.
func (m *Maintainer) setCell(j int, cell geom.Polygon, meta cellMeta) {
	for _, s := range m.meta[j].clipped {
		m.clippedBy[s] = dropID(m.clippedBy[s], int32(j))
	}
	for _, s := range meta.clipped {
		m.clippedBy[s] = append(m.clippedBy[s], int32(j))
	}
	if !polyEq(m.cells[j], cell) {
		m.cells[j] = cell
		m.markDirty(j)
	}
	m.meta[j] = meta
	m.breaks[j] = meta.breakDist2
}

// clearCell tears down a removed cell's bookkeeping.
func (m *Maintainer) clearCell(j int) {
	for _, s := range m.meta[j].clipped {
		m.clippedBy[s] = dropID(m.clippedBy[s], int32(j))
	}
	m.cells[j], m.meta[j], m.breaks[j] = nil, cellMeta{}, 0
}

func dropID(s []int32, v int32) []int32 {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func polyEq(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) > 0
}

func (m *Maintainer) markDirty(j int) {
	if m.dirtyMark[j] == m.dirtyEpoch {
		return
	}
	m.dirtyMark[j] = m.dirtyEpoch
	m.dirtyList = append(m.dirtyList, j)
}

// BeginBatch starts a new dirty-tracking window: BatchDelta will report the
// cells changed and the sites removed from this point on. NewMaintainer
// begins an initial batch, and every swapper's Apply begins one.
func (m *Maintainer) BeginBatch() {
	m.dirtyEpoch++
	m.dirtyList = m.dirtyList[:0]
	m.removed = m.removed[:0]
	m.baseAlive = append(m.baseAlive[:0], m.alive...)
}

// BatchDelta reports the current batch's net effect on the live cell set:
// dirty is the sorted ids of live cells whose polygon bytes differ from the
// batch start (including sites inserted during the batch), and removed is
// the sorted ids of sites that were live at the batch start and are gone
// now. A site added and removed within one batch appears in neither.
func (m *Maintainer) BatchDelta() (dirty, removed []int) {
	for _, j := range m.dirtyList {
		if m.alive[j] {
			dirty = append(dirty, j)
		}
	}
	sort.Ints(dirty)
	for _, j := range m.removed {
		if j < len(m.baseAlive) && m.baseAlive[j] && !m.alive[j] {
			removed = append(removed, j)
		}
	}
	sort.Ints(removed)
	return dirty, removed
}

// maybeRegrid re-dimensions the grid when the live population has drifted
// far from what the buckets were sized for.
func (m *Maintainer) maybeRegrid() {
	if m.n <= 4*m.grid.builtFor && 4*m.n >= m.grid.builtFor {
		return
	}
	g := dimensionGrid(m.area, m.n)
	for j, alive := range m.alive {
		if alive {
			g.insert(j, m.sites[j])
		}
	}
	m.grid = g
}

// Len returns the number of live sites.
func (m *Maintainer) Len() int { return m.n }

// Site returns the location of site id (valid ids only).
func (m *Maintainer) Site(id int) (geom.Point, error) {
	if id < 0 || id >= len(m.sites) || !m.alive[id] {
		return geom.Point{}, fmt.Errorf("voronoi: no live site %d", id)
	}
	return m.sites[id], nil
}

// grow extends the per-site-id arrays for a new id.
func (m *Maintainer) grow(p geom.Point) int {
	id := len(m.sites)
	m.sites = append(m.sites, p)
	m.cells = append(m.cells, nil)
	m.meta = append(m.meta, cellMeta{})
	m.alive = append(m.alive, true)
	m.breaks = append(m.breaks, 0)
	m.clippedBy = append(m.clippedBy, nil)
	m.dirtyMark = append(m.dirtyMark, 0)
	return id
}

// addAffected returns the live cells whose clip sequence a site at p can
// enter: those whose break candidate lies farther than p.
func (m *Maintainer) addAffected(p geom.Point) []int {
	var affected []int
	for j, alive := range m.alive {
		if alive && p.Dist2(m.sites[j]) < m.breaks[j] {
			affected = append(affected, j)
		}
	}
	return affected
}

// Add inserts a new site and returns its id. Only the cells whose clip
// sequence the new site can enter — those whose break candidate lies
// farther than the new site — are rebuilt.
func (m *Maintainer) Add(p geom.Point) (int, error) {
	if !m.area.Contains(p) {
		return 0, fmt.Errorf("voronoi: site %v outside the service area", p)
	}
	if j := m.grid.nearestIn(m.sites, p); j >= 0 && m.sites[j].Dist(p) < 1e-9 {
		return 0, fmt.Errorf("voronoi: duplicate of live site %d", j)
	}
	affected := m.addAffected(p)
	id := m.grow(p)
	m.n++
	m.grid.insert(id, p)
	rollback := func() {
		m.grid.remove(id, p)
		m.sites = m.sites[:id]
		m.cells = m.cells[:id]
		m.meta = m.meta[:id]
		m.alive = m.alive[:id]
		m.breaks = m.breaks[:id]
		m.clippedBy = m.clippedBy[:id]
		m.dirtyMark = m.dirtyMark[:id]
		m.n--
	}
	cell, meta, err := m.computeCell(id)
	if err != nil {
		rollback()
		return 0, fmt.Errorf("voronoi: new site %v has an empty scope (near-duplicate?)", p)
	}
	m.setCell(id, cell, meta)
	var touched []int
	for _, j := range affected {
		nc, nm, err := m.computeCell(j)
		if err != nil {
			// Undo the insert, then restore the neighbors already rebuilt
			// with the doomed site present.
			m.clearCell(id)
			rollback()
			for _, k := range touched {
				if rc, rm, rerr := m.computeCell(k); rerr == nil {
					m.setCell(k, rc, rm)
				}
			}
			return 0, err
		}
		m.setCell(j, nc, nm)
		touched = append(touched, j)
	}
	m.markDirty(id)
	m.maybeRegrid()
	return id, nil
}

// Remove deletes a site; exactly the cells that clipped against it — the
// only ones whose clip sequence its absence can alter — are rebuilt.
func (m *Maintainer) Remove(id int) error {
	if id < 0 || id >= len(m.sites) || !m.alive[id] {
		return fmt.Errorf("voronoi: no live site %d", id)
	}
	if m.n == 1 {
		return fmt.Errorf("voronoi: cannot remove the last site")
	}
	affected := append([]int32(nil), m.clippedBy[id]...)
	sort.Slice(affected, func(a, b int) bool { return affected[a] < affected[b] })
	s := m.sites[id]
	m.alive[id] = false
	m.n--
	m.grid.remove(id, s)
	var touched []int
	for _, j := range affected {
		cell, meta, err := m.computeCell(int(j))
		if err != nil {
			// Restore the site, then the cells already rebuilt without it.
			m.alive[id] = true
			m.n++
			m.grid.insert(id, s)
			for _, k := range touched {
				if rc, rm, rerr := m.computeCell(k); rerr == nil {
					m.setCell(k, rc, rm)
				}
			}
			return err
		}
		m.setCell(int(j), cell, meta)
		touched = append(touched, int(j))
	}
	m.clearCell(id)
	m.removed = append(m.removed, id)
	m.maybeRegrid()
	return nil
}

// Move relocates a live site, keeping its id: downstream consumers see the
// same stable key with a changed scope instead of a remove/add pair, so
// region numbering — and with it most of the broadcast content — is
// preserved across a move batch. The returned id always equals the input id
// on success. The rebuilt set is the union of the cells the removal can
// alter (those that clipped the site) and the cells the re-insertion can
// enter (those whose break candidate lies farther than the new position),
// each rebuilt once against the final site set, so the result is
// bit-identical to a from-scratch diagram of the final positions.
func (m *Maintainer) Move(id int, to geom.Point) (int, error) {
	if id < 0 || id >= len(m.sites) || !m.alive[id] {
		return 0, fmt.Errorf("voronoi: no live site %d", id)
	}
	if !m.area.Contains(to) {
		return 0, fmt.Errorf("voronoi: site %v outside the service area", to)
	}
	from := m.sites[id]
	if j := m.grid.nearestIn(m.sites, to); j >= 0 && j != id && m.sites[j].Dist(to) < 1e-9 {
		return 0, fmt.Errorf("voronoi: duplicate of live site %d", j)
	}
	// Affected set, computed against the pre-move state: cells the departure
	// can alter, plus cells the arrival can enter.
	seen := map[int]bool{int(id): true}
	var affected []int
	for _, j := range m.clippedBy[id] {
		if !seen[int(j)] {
			seen[int(j)] = true
			affected = append(affected, int(j))
		}
	}
	for _, j := range m.addAffected(to) {
		if !seen[j] {
			seen[j] = true
			affected = append(affected, j)
		}
	}
	sort.Ints(affected)

	m.grid.remove(id, from)
	m.sites[id] = to
	m.grid.insert(id, to)
	rollback := func(touched []int) {
		m.grid.remove(id, to)
		m.sites[id] = from
		m.grid.insert(id, from)
		if rc, rm, rerr := m.computeCell(id); rerr == nil {
			m.setCell(id, rc, rm)
		}
		for _, k := range touched {
			if rc, rm, rerr := m.computeCell(k); rerr == nil {
				m.setCell(k, rc, rm)
			}
		}
	}
	cell, meta, err := m.computeCell(id)
	if err != nil {
		rollback(nil)
		return 0, fmt.Errorf("voronoi: moved site %v has an empty scope (near-duplicate?)", to)
	}
	m.setCell(id, cell, meta)
	var touched []int
	for _, j := range affected {
		nc, nm, err := m.computeCell(j)
		if err != nil {
			rollback(touched)
			return 0, err
		}
		m.setCell(j, nc, nm)
		touched = append(touched, j)
	}
	return id, nil
}

// computeCell rebuilds one cell from scratch through the shared clip loop
// and records the build metadata that future updates consult.
func (m *Maintainer) computeCell(id int) (geom.Polygon, cellMeta, error) {
	var meta cellMeta
	cell, err := m.clip.cell(m.grid, m.sites, id, &meta)
	return cell, meta, err
}

// LiveSites returns the live sites and their ids.
func (m *Maintainer) LiveSites() (ids []int, sites []geom.Point) {
	for j, alive := range m.alive {
		if alive {
			ids = append(ids, j)
			sites = append(sites, m.sites[j])
		}
	}
	return ids, sites
}

// LiveCells returns the live cell polygons in site-id order together with
// their site ids, without building a subdivision. The returned polygon
// slices are the maintainer's own: they are never mutated in place (every
// rebuild installs a fresh slice), so callers may hold them across future
// updates, but must not modify them.
func (m *Maintainer) LiveCells() (ids []int, polys []geom.Polygon) {
	ids = make([]int, 0, m.n)
	polys = make([]geom.Polygon, 0, m.n)
	for j, alive := range m.alive {
		if alive {
			ids = append(ids, j)
			polys = append(polys, m.cells[j])
		}
	}
	return ids, polys
}

// Snapshot assembles the current scopes into a validated subdivision for
// index building. The returned id slice maps region index -> site id.
func (m *Maintainer) Snapshot() (*region.Subdivision, []int, error) {
	ids, polys := m.LiveCells()
	sub, err := region.New(m.area, polys)
	if err != nil {
		return nil, nil, fmt.Errorf("voronoi: snapshot: %w", err)
	}
	if err := sub.Validate(); err != nil {
		return nil, nil, fmt.Errorf("voronoi: snapshot invalid: %w", err)
	}
	return sub, ids, nil
}
