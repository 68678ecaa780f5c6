package geom

// Polygon is a simple polygon stored as its vertex ring without repeating
// the first vertex. The canonical orientation throughout the repository is
// counter-clockwise; use EnsureCCW after external construction.
type Polygon []Point

// SignedArea returns the signed area of the polygon: positive for
// counter-clockwise rings, negative for clockwise.
func (pg Polygon) SignedArea() float64 {
	var s float64
	n := len(pg)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += pg[i].Cross(pg[j])
	}
	return s / 2
}

// Area returns the absolute area of the polygon.
func (pg Polygon) Area() float64 {
	a := pg.SignedArea()
	if a < 0 {
		return -a
	}
	return a
}

// EnsureCCW returns the polygon in counter-clockwise orientation, reversing
// a clockwise ring in place.
func (pg Polygon) EnsureCCW() Polygon {
	if pg.SignedArea() < 0 {
		for i, j := 0, len(pg)-1; i < j; i, j = i+1, j-1 {
			pg[i], pg[j] = pg[j], pg[i]
		}
	}
	return pg
}

// Clone returns a deep copy of the polygon.
func (pg Polygon) Clone() Polygon {
	out := make(Polygon, len(pg))
	copy(out, pg)
	return out
}

// Bounds returns the axis-aligned bounding rectangle (the MBR used by the
// R*-tree) of the polygon.
func (pg Polygon) Bounds() Rect {
	return RectFromPoints(pg...)
}

// Contains reports whether p lies inside the polygon or on its boundary.
// Interior membership uses even-odd ray crossing with the half-open edge
// rule; boundary points are detected explicitly so that queries landing
// exactly on shared region borders resolve deterministically.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg)
	inside := false
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		e := Segment{pg[i], pg[j]}
		if e.Contains(p) {
			return true
		}
		if e.CrossesRightwardRay(p) {
			inside = !inside
		}
	}
	return inside
}

// Edges returns the directed edges of the polygon in ring order.
func (pg Polygon) Edges() []Segment {
	n := len(pg)
	out := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Segment{pg[i], pg[(i+1)%n]})
	}
	return out
}

// IsConvex reports whether the polygon is convex (allowing collinear runs).
func (pg Polygon) IsConvex() bool {
	n := len(pg)
	if n < 4 {
		return true
	}
	sign := 0
	for i := 0; i < n; i++ {
		s := OrientSign(pg[i], pg[(i+1)%n], pg[(i+2)%n])
		if s == 0 {
			continue
		}
		if sign == 0 {
			sign = s
		} else if s != sign {
			return false
		}
	}
	return true
}

// Dedup returns the polygon with consecutive (near-)duplicate vertices and
// the wrap-around duplicate removed. It is applied after clipping, which can
// produce coincident vertices at half-plane boundaries.
func (pg Polygon) Dedup() Polygon {
	if len(pg) == 0 {
		return pg
	}
	out := pg[:0]
	for _, p := range pg {
		if len(out) == 0 || !out[len(out)-1].Eq(p) {
			out = append(out, p)
		}
	}
	for len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}
