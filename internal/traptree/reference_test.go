package traptree

import "airindex/internal/geom"

// TrapezoidCount returns the number of trapezoids in the refined map.
func (m *Map) TrapezoidCount() int { return len(m.traps) }

// SegmentCount returns the number of inserted (interior) segments.
func (m *Map) SegmentCount() int { return len(m.segs) }

// Locate returns the id of the region containing p.
func (m *Map) Locate(p geom.Point) int {
	return m.locate(p, 0, false).region
}
