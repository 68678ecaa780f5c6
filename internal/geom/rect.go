package geom

import "math"

// Rect is an axis-aligned rectangle. A Rect with MinX > MaxX or MinY > MaxY
// is empty; EmptyRect is the canonical empty rectangle suitable as the seed
// of a union fold.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the canonical empty rectangle.
func EmptyRect() Rect {
	return Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
}

// RectFromPoints returns the smallest rectangle containing all pts.
func RectFromPoints(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// W returns the width of the rectangle (0 when empty).
func (r Rect) W() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// H returns the height of the rectangle (0 when empty).
func (r Rect) H() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of the rectangle (0 when empty).
func (r Rect) Area() float64 { return r.W() * r.H() }

// Margin returns half the perimeter (width + height), the quantity the
// R*-tree split heuristic minimizes.
func (r Rect) Margin() float64 { return r.W() + r.H() }

// Center returns the center point of the rectangle.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the rectangle common to r and s (possibly empty).
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// OverlapArea returns the area of the intersection of r and s.
func (r Rect) OverlapArea(s Rect) float64 { return r.Intersection(s).Area() }

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
}

// Corners returns the four corners of the rectangle in counter-clockwise
// order starting from (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}

// Polygon returns the rectangle as a counter-clockwise polygon.
func (r Rect) Polygon() Polygon {
	c := r.Corners()
	return Polygon{c[0], c[1], c[2], c[3]}
}
