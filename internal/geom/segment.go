package geom

import "math"

// Segment is a closed line segment between two endpoints.
type Segment struct {
	A, B Point
}

// Len returns the Euclidean length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Bounds returns the axis-aligned bounding rectangle of the segment.
func (s Segment) Bounds() Rect {
	return Rect{
		MinX: math.Min(s.A.X, s.B.X), MinY: math.Min(s.A.Y, s.B.Y),
		MaxX: math.Max(s.A.X, s.B.X), MaxY: math.Max(s.A.Y, s.B.Y),
	}
}

// Contains reports whether point p lies on the segment within Eps.
func (s Segment) Contains(p Point) bool {
	if OrientSign(s.A, s.B, p) != 0 {
		return false
	}
	b := s.Bounds()
	return p.X >= b.MinX-Eps && p.X <= b.MaxX+Eps && p.Y >= b.MinY-Eps && p.Y <= b.MaxY+Eps
}

// Intersects reports whether segments s and t share at least one point
// (including touching at endpoints or overlapping collinearly).
func (s Segment) Intersects(t Segment) bool {
	d1 := OrientSign(t.A, t.B, s.A)
	d2 := OrientSign(t.A, t.B, s.B)
	d3 := OrientSign(s.A, s.B, t.A)
	d4 := OrientSign(s.A, s.B, t.B)
	if d1*d2 < 0 && d3*d4 < 0 {
		return true
	}
	if d1 == 0 && t.Contains(s.A) {
		return true
	}
	if d2 == 0 && t.Contains(s.B) {
		return true
	}
	if d3 == 0 && s.Contains(t.A) {
		return true
	}
	if d4 == 0 && s.Contains(t.B) {
		return true
	}
	return false
}

// Intersection returns the single intersection point of properly crossing
// segments s and t, and whether such a point exists. Collinear overlaps and
// mere endpoint touches where the lines are parallel report ok = false.
func (s Segment) Intersection(t Segment) (Point, bool) {
	r := s.B.Sub(s.A)
	q := t.B.Sub(t.A)
	denom := r.Cross(q)
	if math.Abs(denom) <= Eps {
		return Point{}, false
	}
	diff := t.A.Sub(s.A)
	u := diff.Cross(q) / denom
	v := diff.Cross(r) / denom
	if u < -Eps || u > 1+Eps || v < -Eps || v > 1+Eps {
		return Point{}, false
	}
	return Lerp(s.A, s.B, u), true
}

// CrossesRightwardRay reports whether a horizontal ray emanating from p to
// the right (+x) crosses the segment, using the standard half-open rule
// (an endpoint exactly at p.Y counts only when it is the lower endpoint),
// so that a ray passing through a shared vertex of two chained segments is
// counted exactly once. Points lying exactly on the segment count as a
// crossing, which callers may special-case if needed.
func (s Segment) CrossesRightwardRay(p Point) bool {
	a, b := s.A, s.B
	if (a.Y > p.Y) == (b.Y > p.Y) {
		return false
	}
	// x-coordinate of the segment at height p.Y.
	x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
	return x > p.X
}
