// Package region models the location-dependent dataset of the paper: a set
// of data regions (polygonal valid scopes) that exactly tile a rectangular
// service area (Definition 1). It provides the canonical, vertex-welded
// subdivision representation every index structure consumes, the shared-edge
// adjacency map the D-tree partition algorithm needs to extract subspace
// extents, and a brute-force locator used as ground truth in tests.
package region

import (
	"fmt"
	"math"
	"sync"

	"airindex/internal/geom"
)

// Region is one data instance's valid scope. ID is the data instance
// identifier (the index of its data bucket on the broadcast channel).
type Region struct {
	ID   int
	Poly geom.Polygon
}

// Bounds returns the MBR of the region.
func (r Region) Bounds() geom.Rect { return r.Poly.Bounds() }

// Subdivision is a validated, canonicalized planar subdivision of a service
// area into data regions. Vertices shared between adjacent regions are
// welded to identical float64 coordinates and indexed, so shared edges can
// be recognized exactly.
type Subdivision struct {
	Area    geom.Rect
	Regions []Region

	// Verts holds the canonical vertex coordinates; rings holds, per region,
	// the ring of canonical vertex indices (same order as Region.Poly).
	//
	// Patched subdivisions (see Patcher) share the Verts backing array with
	// their predecessors append-only: entries below an older generation's
	// length are never rewritten, and ids of vertices no longer referenced
	// by any ring are simply retired, so Verts may contain dead entries.
	Verts []geom.Point
	rings [][]int

	// keyOf maps region index -> stable external key (the site id, for
	// subdivisions maintained across generations). nil means the identity
	// mapping (region index is its own key), which New produces.
	keyOf []int32
	// maxKey is the largest key value in keyOf (N-1 under identity);
	// BoundarySegmentsInto sizes its membership scratch from it.
	maxKey int32
	// nbrKey holds, per region and ring edge j (from ring[j] to ring[j+1]),
	// the stable key of the region on the other side, or -1 on the
	// service-area border. It is the adjacency relation BoundarySegmentsInto
	// walks; unlike twin it survives region renumbering, so patched
	// generations share the slices of unchanged regions.
	nbrKey [][]int32

	// twin maps a directed edge (u,v) to the region owning it (regions are
	// CCW, so the owner lies to the left of u->v), built on first use
	// (ensureTwin) or by T-junction repair.
	twin     map[[2]int]int
	twinOnce sync.Once
}

// DefaultWeldTol is the default vertex-welding tolerance. Voronoi cells are
// constructed independently per site, so coordinates of a shared vertex can
// disagree by accumulated rounding; anything within this distance is treated
// as one vertex.
const DefaultWeldTol = 1e-5

// Option configures subdivision construction.
type Option func(*buildConfig)

type buildConfig struct {
	insertCol bool
}

// WithTJunctionRepair enables insertion of canonical vertices that lie in
// the interior of another region's edge (T-junctions), which hand-authored
// subdivisions may contain. Voronoi subdivisions never need this.
func WithTJunctionRepair() Option { return func(c *buildConfig) { c.insertCol = true } }

// New builds a Subdivision from raw polygons. Polygons are deduplicated,
// forced counter-clockwise, and their vertices welded (a Patcher's
// bootstrap: every polygon dirty). The i-th polygon becomes region ID i.
func New(area geom.Rect, polys []geom.Polygon, opts ...Option) (*Subdivision, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	keys := make([]int, len(polys))
	for i := range keys {
		keys[i] = i
	}
	s, _, err := NewPatcher(area).Patch(keys, polys, keys, nil)
	if err != nil {
		return nil, err
	}
	s.keyOf = nil
	if !cfg.insertCol {
		return s, nil
	}
	s.rings = insertTJunctions(s.Verts, s.rings)
	edges := 0
	for i, ring := range s.rings {
		s.Regions[i].Poly = make(geom.Polygon, len(ring))
		for j, v := range ring {
			s.Regions[i].Poly[j] = s.Verts[v]
		}
		edges += len(ring)
	}
	if s.twin = s.edgeOwners(); len(s.twin) != edges {
		return nil, fmt.Errorf("region: a directed edge is owned twice after T-junction repair")
	}
	for i, ring := range s.rings {
		s.nbrKey[i] = make([]int32, len(ring))
		for j := range ring {
			s.nbrKey[i][j] = int32(s.Neighbor(ring[j], ring[(j+1)%len(ring)]))
		}
	}
	return s, nil
}

// Key returns the stable external key of region id (the id itself for
// subdivisions built by New, the site id for patched generations).
func (s *Subdivision) Key(id int) int {
	if s.keyOf == nil {
		return id
	}
	return int(s.keyOf[id])
}

// MaxKey returns the largest stable key in the subdivision.
func (s *Subdivision) MaxKey() int { return int(s.maxKey) }

// ensureTwin builds the directed-edge ownership map on first use: the
// serving pipeline needs only nbrKey, twin serves the baseline indexes.
func (s *Subdivision) ensureTwin() {
	s.twinOnce.Do(func() {
		if s.twin == nil {
			s.twin = s.edgeOwners()
		}
	})
}

// edgeOwners builds the directed-edge ownership map from the rings.
func (s *Subdivision) edgeOwners() map[[2]int]int {
	twin := make(map[[2]int]int, len(s.Verts)*3)
	for i, ring := range s.rings {
		for j := range ring {
			twin[[2]int{ring[j], ring[(j+1)%len(ring)]}] = i
		}
	}
	return twin
}

// N returns the number of regions.
func (s *Subdivision) N() int { return len(s.Regions) }

// Neighbor returns the region on the other side of the directed edge (u,v)
// owned by some region, or -1 when (v,u) is unowned (service-area boundary).
func (s *Subdivision) Neighbor(u, v int) int {
	s.ensureTwin()
	if r, ok := s.twin[[2]int{v, u}]; ok {
		return r
	}
	return -1
}

// EdgeOwner returns the region owning directed edge (u,v), or -1.
func (s *Subdivision) EdgeOwner(u, v int) int {
	s.ensureTwin()
	if r, ok := s.twin[[2]int{u, v}]; ok {
		return r
	}
	return -1
}

// Locate returns the ID of the region containing p using brute-force scan
// with a bounding-box prefilter. It is the ground truth the index structures
// are tested against. Returns -1 if no region contains p.
func (s *Subdivision) Locate(p geom.Point) int {
	for i := range s.Regions {
		if !s.Regions[i].Bounds().Contains(p) {
			continue
		}
		if s.Regions[i].Poly.Contains(p) {
			return i
		}
	}
	return -1
}

// Validate checks the subdivision invariants of Definition 1: regions cover
// the service area (areas sum to the area of A within tolerance), every
// interior edge is shared by exactly two regions with opposite orientation,
// and all rings are counter-clockwise. Edges are checked against nbrKey
// without trusting how it was derived: a neighbour's ring must carry the
// reverse edge, and a border edge's endpoints must lie on the area's edge.
func (s *Subdivision) Validate() error {
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
	idOf := make([]int32, s.maxKey+1) // stable key -> region id + 1
	for i := range s.rings {
		idOf[s.Key(i)] = int32(i) + 1
	}
	for i, ring := range s.rings {
		for j, u := range ring {
			v := ring[(j+1)%len(ring)]
			if k := s.nbrKey[i][j]; k >= 0 {
				if k > s.maxKey || idOf[k] == 0 || !hasEdge(s.rings[idOf[k]-1], v, u) {
					return fmt.Errorf("region %d: neighbour key %d across edge (%d,%d) lacks the reverse edge", i, k, u, v)
				}
				continue
			}
			for _, vid := range [2]int{u, v} {
				if p := s.Verts[vid]; !onRectBorder(p, s.Area) {
					return fmt.Errorf("region %d: unmatched edge (%d,%d) with vertex %v off the service-area border", i, u, v, p)
				}
			}
		}
	}
	return nil
}

// hasEdge reports whether ring contains the directed edge u->v.
func hasEdge(ring []int, u, v int) bool {
	for j := range ring {
		if ring[j] == u && ring[(j+1)%len(ring)] == v {
			return true
		}
	}
	return false
}

func onRectBorder(p geom.Point, r geom.Rect) bool {
	const tol = 1e-6
	onX := math.Abs(p.X-r.MinX) <= tol || math.Abs(p.X-r.MaxX) <= tol
	onY := math.Abs(p.Y-r.MinY) <= tol || math.Abs(p.Y-r.MaxY) <= tol
	inX := p.X >= r.MinX-tol && p.X <= r.MaxX+tol
	inY := p.Y >= r.MinY-tol && p.Y <= r.MaxY+tol
	return (onX && inY) || (onY && inX)
}

// insertTJunctions inserts any canonical vertex that lies strictly inside
// another ring's edge into that edge, so both sides of a border list the
// same vertex sequence.
func insertTJunctions(verts []geom.Point, rings [][]int) [][]int {
	out := make([][]int, len(rings))
	for i, ring := range rings {
		n := len(ring)
		rebuilt := make([]int, 0, n)
		for j := 0; j < n; j++ {
			u, v := ring[j], ring[(j+1)%n]
			rebuilt = append(rebuilt, u)
			seg := geom.Segment{A: verts[u], B: verts[v]}
			// Collect vertices strictly interior to this edge.
			var mids []int
			for w := range verts {
				if w == u || w == v {
					continue
				}
				p := verts[w]
				if seg.Contains(p) && !p.Eq(seg.A) && !p.Eq(seg.B) {
					mids = append(mids, w)
				}
			}
			// Order along the edge by distance from u.
			for a := 0; a < len(mids); a++ {
				for b := a + 1; b < len(mids); b++ {
					if verts[mids[b]].Dist2(seg.A) < verts[mids[a]].Dist2(seg.A) {
						mids[a], mids[b] = mids[b], mids[a]
					}
				}
			}
			rebuilt = append(rebuilt, mids...)
		}
		out[i] = rebuilt
	}
	return out
}
