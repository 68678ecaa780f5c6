package core

import "airindex/internal/geom"

// RegionIntersectsRect reports whether a region polygon and a query window
// share any point (boundary touches included) — the exact membership test
// window-query oracles score air answers against.
func RegionIntersectsRect(pg geom.Polygon, w geom.Rect) bool {
	if !pg.Bounds().Intersects(w) {
		return false
	}
	// Any polygon vertex inside the window, or window corner inside the
	// polygon, or any edge pair crossing.
	for _, p := range pg {
		if w.Contains(p) {
			return true
		}
	}
	for _, c := range w.Corners() {
		if pg.Contains(c) {
			return true
		}
	}
	wp := w.Polygon()
	for _, e := range pg.Edges() {
		for _, f := range wp.Edges() {
			if e.Intersects(f) {
				return true
			}
		}
	}
	return false
}
