package region

import "airindex/internal/geom"

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
