package core

import (
	"fmt"

	"airindex/internal/geom"
	"airindex/internal/region"
)

// Continuous (trajectory) queries: a moving client wants to know which data
// region is valid along a straight path and exactly where the answer
// changes — the primitive behind location-dependent cache invalidation
// (the paper's companion problem in reference [23]). Each boundary crossing
// is found geometrically against the current region's ring and the region
// beyond it resolved on the subdivision, so the answer is the ground truth
// the broadcast index encodes.

// Crossing is one leg of a trajectory: Region is valid from parameter T
// (0 at the start point) until the next leg's T (or 1.0 for the last leg).
type Crossing struct {
	Region int
	T      float64
	At     geom.Point // entry location (the start point for the first leg)
}

// CrossedRegions returns the sequence of regions of sub a straight
// trajectory from a to b visits, in order, with entry parameters. Both
// endpoints must lie inside the service area.
func CrossedRegions(sub *region.Subdivision, a, b geom.Point) ([]Crossing, error) {
	if !sub.Area.Contains(a) || !sub.Area.Contains(b) {
		return nil, fmt.Errorf("core: trajectory endpoints must lie in the service area")
	}
	const eps = 1e-9
	cur := sub.Locate(a)
	if cur < 0 {
		return nil, fmt.Errorf("core: no region contains the trajectory start %v", a)
	}
	out := []Crossing{{Region: cur, T: 0, At: a}}
	if a == b {
		return out, nil
	}
	tcur := 0.0
	for steps := 0; steps <= sub.N()*4+16; steps++ {
		// The first exit from the current region strictly after tcur.
		tNext, ok := exitParam(sub.Regions[cur].Poly, a, b, tcur+eps)
		if !ok || tNext >= 1 {
			return out, nil
		}
		// Resolve the region just beyond the crossing; nudge forward past
		// the boundary (and past any vertex-grazing ambiguity).
		probe := tNext + eps*10
		var next int
		for {
			if probe >= 1 {
				return out, nil // the crossing grazes the very end
			}
			next = sub.Locate(geom.Lerp(a, b, probe))
			if next >= 0 && next != cur {
				break
			}
			probe += (1 - tNext) / 1024 // grazing contact; push further
			if probe > tNext+(1-tNext)/8 {
				// The path only touched the boundary and stayed inside.
				break
			}
		}
		if next < 0 || next == cur {
			tcur = probe
			continue
		}
		out = append(out, Crossing{Region: next, T: tNext, At: geom.Lerp(a, b, tNext)})
		cur = next
		tcur = tNext
	}
	return nil, fmt.Errorf("core: trajectory did not terminate after %d crossings", len(out))
}

// exitParam returns the smallest parameter >= tMin at which the segment
// a->b crosses the polygon's boundary, and whether one exists.
func exitParam(pg geom.Polygon, a, b geom.Point, tMin float64) (float64, bool) {
	seg := geom.Segment{A: a, B: b}
	best, found := 0.0, false
	dir := b.Sub(a)
	d2 := dir.Dot(dir)
	for _, e := range pg.Edges() {
		p, ok := seg.Intersection(e)
		if !ok {
			continue
		}
		tt := p.Sub(a).Dot(dir) / d2
		if tt < tMin || tt > 1 {
			continue
		}
		if !found || tt < best {
			best, found = tt, true
		}
	}
	return best, found
}
