package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randRect(rng *rand.Rand) Rect {
	x1, x2 := rng.Float64()*100, rng.Float64()*100
	y1, y2 := rng.Float64()*100, rng.Float64()*100
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

func TestRectBasics(t *testing.T) {
	r := Rect{MinX: 1, MinY: 2, MaxX: 4, MaxY: 6}
	if r.W() != 3 || r.H() != 4 || r.Area() != 12 || r.Margin() != 7 {
		t.Errorf("dims wrong: %v %v %v %v", r.W(), r.H(), r.Area(), r.Margin())
	}
	if r.Center() != Pt(2.5, 4) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Pt(1, 2)) || !r.Contains(Pt(4, 6)) || r.Contains(Pt(4.01, 6)) {
		t.Error("Contains boundary semantics wrong")
	}
	if EmptyRect().Area() != 0 || !EmptyRect().IsEmpty() {
		t.Error("EmptyRect should be empty")
	}
}

func TestRectUnionIntersectionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain %v and %v", u, a, b)
		}
		inter := a.Intersection(b)
		if a.Intersects(b) != !inter.IsEmpty() {
			t.Fatalf("Intersects inconsistent with Intersection for %v %v", a, b)
		}
		if !inter.IsEmpty() && (!a.ContainsRect(inter) || !b.ContainsRect(inter)) {
			t.Fatalf("intersection not contained in operands")
		}
		if got, want := a.OverlapArea(b), b.OverlapArea(a); got != want {
			t.Fatalf("overlap not symmetric: %v vs %v", got, want)
		}
	}
}

func TestRectFromPointsAndCorners(t *testing.T) {
	f := func(xs [6]float64) bool {
		pts := []Point{Pt(xs[0], xs[1]), Pt(xs[2], xs[3]), Pt(xs[4], xs[5])}
		r := RectFromPoints(pts...)
		for _, p := range pts {
			if !r.Contains(p) {
				return false
			}
		}
		for _, c := range r.Corners() {
			if !r.Contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestRectPolygonRoundTrip(t *testing.T) {
	r := Rect{MinX: 1, MinY: 2, MaxX: 4, MaxY: 6}
	pg := r.Polygon()
	if pg.SignedArea() <= 0 {
		t.Error("rect polygon should be CCW")
	}
	if pg.Area() != r.Area() {
		t.Errorf("areas differ: %v vs %v", pg.Area(), r.Area())
	}
	if pg.Bounds() != r {
		t.Errorf("bounds differ: %v vs %v", pg.Bounds(), r)
	}
}

func TestEmptyRectAlgebra(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}
	e := EmptyRect()
	if r.Union(e) != r || e.Union(r) != r {
		t.Error("union with empty should be identity")
	}
	if !r.ContainsRect(e) {
		t.Error("anything contains the empty rect")
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect intersects nothing")
	}
}
