package traptree

// TrapezoidCount returns the number of trapezoids in the refined map.
func (m *Map) TrapezoidCount() int { return len(m.traps) }

// SegmentCount returns the number of inserted (interior) segments.
func (m *Map) SegmentCount() int { return len(m.segs) }
