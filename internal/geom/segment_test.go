package geom

import (
	"math/rand"
	"testing"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 3))
	if got := s.Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	b := s.Bounds()
	if b.MinX != 0 || b.MaxX != 4 || b.MinY != 0 || b.MaxY != 3 {
		t.Errorf("Bounds = %+v", b)
	}
}

func TestSegmentContains(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 10))
	if !s.Contains(Pt(5, 5)) {
		t.Error("midpoint should be contained")
	}
	if !s.Contains(Pt(0, 0)) || !s.Contains(Pt(10, 10)) {
		t.Error("endpoints should be contained")
	}
	if s.Contains(Pt(11, 11)) {
		t.Error("collinear point beyond end should not be contained")
	}
	if s.Contains(Pt(5, 6)) {
		t.Error("off-line point should not be contained")
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Seg(Pt(0, 0), Pt(10, 10)), Seg(Pt(0, 10), Pt(10, 0)), true}, // proper cross
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(10, 0), Pt(20, 5)), true},  // shared endpoint
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, 0), Pt(5, 7)), true},    // T-touch
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(0, 1), Pt(10, 1)), false},  // parallel apart
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(6, 0), Pt(9, 0)), false},    // collinear apart
		{Seg(Pt(0, 0), Pt(6, 0)), Seg(Pt(4, 0), Pt(9, 0)), true},     // collinear overlap
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(2, 0), Pt(3, -4)), false},   // disjoint
	}
	for i, c := range cases {
		if got := c.s.Intersects(c.u); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.u.Intersects(c.s); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentIntersectionPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 10))
	u := Seg(Pt(0, 10), Pt(10, 0))
	p, ok := s.Intersection(u)
	if !ok || !p.Eq(Pt(5, 5)) {
		t.Errorf("Intersection = %v, %v", p, ok)
	}
	if _, ok := s.Intersection(Seg(Pt(0, 1), Pt(10, 11))); ok {
		t.Error("parallel segments should not intersect in a point")
	}
	if _, ok := s.Intersection(Seg(Pt(20, 0), Pt(30, -10))); ok {
		t.Error("crossing outside both ranges should fail")
	}
}

func TestCrossesRightwardRayHalfOpenRule(t *testing.T) {
	// A ray through the shared vertex of a chain must count exactly one
	// crossing across the two segments.
	apex := Pt(5, 5)
	s1 := Seg(Pt(4, 0), apex)
	s2 := Seg(apex, Pt(4, 10))
	p := Pt(0, 5) // ray passes exactly through the apex height
	n := 0
	if s1.CrossesRightwardRay(p) {
		n++
	}
	if s2.CrossesRightwardRay(p) {
		n++
	}
	if n != 1 {
		t.Errorf("apex crossing counted %d times, want 1", n)
	}
	// Horizontal segments can never be crossed.
	if Seg(Pt(1, 5), Pt(9, 5)).CrossesRightwardRay(p) {
		t.Error("horizontal segment crossed")
	}
	// Segments fully left of the point never cross.
	if Seg(Pt(-5, 0), Pt(-5, 10)).CrossesRightwardRay(p) {
		t.Error("segment left of origin crossed")
	}
}

func TestCrossesRightwardRayMatchesPolygonParity(t *testing.T) {
	// For a closed convex ring, parity of crossings must match membership.
	rng := rand.New(rand.NewSource(3))
	ring := Polygon{Pt(2, 2), Pt(8, 1), Pt(9, 7), Pt(5, 9), Pt(1, 6)}
	for i := 0; i < 2000; i++ {
		p := Pt(rng.Float64()*10, rng.Float64()*10)
		n := 0
		for _, e := range ring.Edges() {
			if e.CrossesRightwardRay(p) {
				n++
			}
		}
		inside := ring.ContainsStrict(p)
		if inside != (n%2 == 1) {
			t.Fatalf("point %v: parity %d vs strict containment %v", p, n, inside)
		}
	}
}
