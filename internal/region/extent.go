package region

import "airindex/internal/geom"

// BoundaryScratch is reusable state for BoundarySegmentsInto: an
// epoch-marked membership array indexed by stable region key. Each caller
// (e.g. each D-tree build worker) owns its own scratch; the zero value is
// ready to use.
type BoundaryScratch struct {
	mark  []int32
	epoch int32
}

// BoundarySegmentsInto appends to out the boundary edges of the union of
// the given regions: every edge owned by a region in the set whose twin
// either does not exist (service-area border) or belongs to a region
// outside the set. This is the "extent" of a subspace in the D-tree
// partition algorithm (Algorithm 1, line 3); the extent may consist of
// several closed loops. The scratch is caller-owned, so a hot path makes
// no per-call allocation once scratch and output reach steady state.
func (s *Subdivision) BoundarySegmentsInto(ids []int, sc *BoundaryScratch, out []geom.Segment) []geom.Segment {
	if int32(len(sc.mark)) <= s.maxKey {
		sc.mark = make([]int32, s.maxKey+1)
		sc.epoch = 0
	}
	sc.epoch++
	epoch := sc.epoch
	if s.keyOf == nil {
		for _, id := range ids {
			sc.mark[id] = epoch
		}
	} else {
		for _, id := range ids {
			sc.mark[s.keyOf[id]] = epoch
		}
	}
	for _, id := range ids {
		ring := s.rings[id]
		nbr := s.nbrKey[id]
		n := len(ring)
		for j := 0; j < n; j++ {
			if k := nbr[j]; k >= 0 && sc.mark[k] == epoch {
				continue
			}
			u, v := ring[j], ring[(j+1)%n]
			out = append(out, geom.Segment{A: s.Verts[u], B: s.Verts[v]})
		}
	}
	return out
}

// NbrKeys returns, per ring edge of region id, the stable key of the region
// on the other side (-1 on the service-area border). Callers must not
// modify the returned slice.
func (s *Subdivision) NbrKeys(id int) []int32 { return s.nbrKey[id] }

// UniqueEdges returns every undirected edge of the subdivision exactly once,
// together with the regions above/below resolution needed by the trapezoidal
// map: for each returned edge, owner is the region owning the lexicographically
// forward direction and neighbor the region on the other side (-1 outside).
type UniqueEdge struct {
	A, B     geom.Point // A < B lexicographically
	Forward  int        // region owning directed edge A->B (on its left), -1 if none
	Backward int        // region owning directed edge B->A, -1 if none
}

// UniqueEdges enumerates the undirected edges of the subdivision in a
// deterministic order (ring order over regions), so randomized consumers
// that shuffle the result are reproducible given their seed.
func (s *Subdivision) UniqueEdges() []UniqueEdge {
	s.ensureTwin()
	seen := make(map[[2]int]bool, len(s.twin))
	var out []UniqueEdge
	for _, ring := range s.rings {
		n := len(ring)
		for j := 0; j < n; j++ {
			u, v := ring[j], ring[(j+1)%n]
			key := [2]int{min(u, v), max(u, v)}
			if seen[key] {
				continue
			}
			seen[key] = true
			a, b := s.Verts[key[0]], s.Verts[key[1]]
			if b.Less(a) {
				a, b = b, a
				key[0], key[1] = key[1], key[0]
			}
			out = append(out, UniqueEdge{
				A:        a,
				B:        b,
				Forward:  s.EdgeOwner(key[0], key[1]),
				Backward: s.EdgeOwner(key[1], key[0]),
			})
		}
	}
	return out
}
