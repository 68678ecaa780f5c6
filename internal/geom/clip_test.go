package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestBisectorHalfPlane(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	h := Bisector(a, b)
	if h.Side(Pt(2, 3)) > Eps {
		t.Error("point nearer a should be in a's dominance region")
	}
	if h.Side(Pt(8, -1)) <= Eps {
		t.Error("point nearer b should not be in a's dominance region")
	}
	if h.Side(Pt(5, 100)) > Eps {
		t.Error("equidistant point should be included (closed half-plane)")
	}
}

func TestClipHalfPlaneSquare(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	// Keep x <= 4.
	got := ClipHalfPlane(sq, HalfPlane{A: 1, B: 0, C: 4})
	if math.Abs(got.Area()-40) > 1e-9 {
		t.Errorf("clipped area = %v, want 40", got.Area())
	}
	// Fully inside.
	if got := ClipHalfPlane(sq, HalfPlane{A: 1, B: 0, C: 100}); math.Abs(got.Area()-100) > 1e-9 {
		t.Errorf("full keep area = %v", got.Area())
	}
	// Fully outside.
	if got := ClipHalfPlane(sq, HalfPlane{A: 1, B: 0, C: -1}); got != nil {
		t.Errorf("fully clipped should be nil, got %v", got)
	}
}

func TestClipHalfPlaneAreaAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		pg := randConvex(rng, 3+rng.Intn(7))
		if len(pg) < 3 {
			continue
		}
		// A random line: the two half-plane areas must sum to the polygon's.
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		if a == 0 && b == 0 {
			continue
		}
		c := rng.Float64()*200 - 50
		left := ClipHalfPlane(pg, HalfPlane{A: a, B: b, C: c})
		right := ClipHalfPlane(pg, HalfPlane{A: -a, B: -b, C: -c})
		var sum float64
		if left != nil {
			sum += left.Area()
		}
		if right != nil {
			sum += right.Area()
		}
		if math.Abs(sum-pg.Area()) > 1e-6*(1+pg.Area()) {
			t.Fatalf("areas %v + split %v: sum %v != %v", pg, []float64{a, b, c}, sum, pg.Area())
		}
	}
}

func TestClipRect(t *testing.T) {
	pg := Polygon{Pt(-5, -5), Pt(15, -5), Pt(15, 15), Pt(-5, 15)}
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	got := ClipRect(pg, r)
	if math.Abs(got.Area()-100) > 1e-9 {
		t.Errorf("clip to rect area = %v", got.Area())
	}
	if ClipRect(Polygon{Pt(20, 20), Pt(30, 20), Pt(25, 30)}, r) != nil {
		t.Error("disjoint polygon should clip to nil")
	}
}

func TestClipAreaVerticalBand(t *testing.T) {
	var buf [2]Polygon // reused across calls
	sq := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	if got := ClipAreaVerticalBand(sq, 2, 5, &buf); math.Abs(got-30) > 1e-9 {
		t.Errorf("band area = %v, want 30", got)
	}
	if got := ClipAreaVerticalBand(sq, 5, 5, &buf); got != 0 {
		t.Errorf("empty band = %v", got)
	}
	if got := ClipAreaVerticalBand(sq, 8, 2, &buf); got != 0 {
		t.Errorf("inverted band = %v", got)
	}
	if got := ClipAreaVerticalBand(sq, -5, 15, &buf); math.Abs(got-100) > 1e-9 {
		t.Errorf("full band = %v", got)
	}
}
