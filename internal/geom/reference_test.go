package geom

// Seg is shorthand for constructing a Segment.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// ContainsStrict reports whether p lies strictly inside the polygon,
// excluding the boundary.
func (pg Polygon) ContainsStrict(p Point) bool {
	n := len(pg)
	inside := false
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		e := Segment{pg[i], pg[j]}
		if e.Contains(p) {
			return false
		}
		if e.CrossesRightwardRay(p) {
			inside = !inside
		}
	}
	return inside
}
