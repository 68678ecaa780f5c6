package geom

// HalfPlane describes the set of points satisfying A*x + B*y <= C.
type HalfPlane struct {
	A, B, C float64
}

// Side returns the signed value A*x + B*y - C; non-positive values are
// inside the half-plane.
func (h HalfPlane) Side(p Point) float64 { return h.A*p.X + h.B*p.Y - h.C }

// Bisector returns the half-plane of points at least as close to a as to b,
// i.e. the Voronoi dominance region of site a over site b.
func Bisector(a, b Point) HalfPlane {
	// |p-a|^2 <= |p-b|^2  <=>  2(b-a)·p <= |b|^2 - |a|^2.
	return HalfPlane{
		A: 2 * (b.X - a.X),
		B: 2 * (b.Y - a.Y),
		C: b.X*b.X + b.Y*b.Y - a.X*a.X - a.Y*a.Y,
	}
}

// ClipHalfPlane returns the part of the polygon inside the half-plane using
// the Sutherland–Hodgman algorithm. The input must be convex for the output
// to be a single simple polygon; Voronoi cell construction only ever clips
// convex polygons. A nil result means the polygon lies entirely outside.
func ClipHalfPlane(pg Polygon, h HalfPlane) Polygon {
	if len(pg) == 0 {
		return nil
	}
	return ClipHalfPlaneInto(make(Polygon, 0, len(pg)+1), pg, h)
}

// ClipHalfPlaneInto is ClipHalfPlane writing the result into dst's storage
// (from its start, growing it if needed), for loops that clip repeatedly
// and alternate two buffers. dst must not share storage with pg.
func ClipHalfPlaneInto(dst, pg Polygon, h HalfPlane) Polygon {
	if len(pg) == 0 {
		return nil
	}
	out := dst[:0]
	n := len(pg)
	for i := 0; i < n; i++ {
		cur, nxt := pg[i], pg[(i+1)%n]
		curIn, nxtIn := h.Side(cur) <= Eps, h.Side(nxt) <= Eps
		if curIn {
			out = append(out, cur)
		}
		if curIn != nxtIn {
			// Edge crosses the boundary line; add the crossing point.
			dc, dn := h.Side(cur), h.Side(nxt)
			t := dc / (dc - dn)
			out = append(out, Lerp(cur, nxt, t))
		}
	}
	out = out.Dedup()
	if len(out) < 3 {
		return nil
	}
	return out
}

// ClipRect clips the polygon (convex or not; non-convex inputs may yield a
// ring that traces multiple lobes connected by zero-width bridges, which is
// still adequate for area computation) to an axis-aligned rectangle.
func ClipRect(pg Polygon, r Rect) Polygon {
	planes := [4]HalfPlane{
		{A: -1, B: 0, C: -r.MinX}, // x >= MinX
		{A: 1, B: 0, C: r.MaxX},   // x <= MaxX
		{A: 0, B: -1, C: -r.MinY}, // y >= MinY
		{A: 0, B: 1, C: r.MaxY},   // y <= MaxY
	}
	out := pg
	for _, h := range planes {
		out = ClipHalfPlane(out, h)
		if out == nil {
			return nil
		}
	}
	return out
}

// ClipAreaVerticalBand returns the area of the polygon between the vertical
// lines x = lo and x = hi. It is used to compute the D-tree inter-prob
// tie-break (the probability mass of the interlocking strip of a partition).
// The two clips go through the caller's buffers, which it grows as needed
// and leaves for reuse.
func ClipAreaVerticalBand(pg Polygon, lo, hi float64, buf *[2]Polygon) float64 {
	if hi <= lo {
		return 0
	}
	clipped := ClipHalfPlaneInto(buf[0], pg, HalfPlane{A: -1, B: 0, C: -lo}) // x >= lo
	if clipped == nil {
		return 0
	}
	buf[0] = clipped
	clipped = ClipHalfPlaneInto(buf[1], clipped, HalfPlane{A: 1, B: 0, C: hi}) // x <= hi
	if clipped == nil {
		return 0
	}
	buf[1] = clipped
	return clipped.Area()
}
