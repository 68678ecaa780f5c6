package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randConvex returns a random convex polygon (points on a perturbed circle).
func randConvex(rng *rand.Rand, n int) Polygon {
	cx, cy := 20+rng.Float64()*60, 20+rng.Float64()*60
	r := 5 + rng.Float64()*15
	pg := make(Polygon, 0, n)
	angle := 0.0
	for i := 0; i < n; i++ {
		angle += (2 * math.Pi / float64(n)) * (0.5 + rng.Float64())
		rad := r * (0.7 + 0.3*rng.Float64())
		pg = append(pg, Pt(cx+rad*math.Cos(angle), cy+rad*math.Sin(angle)))
	}
	// Sort by angle to guarantee a simple star-shaped (here convex-ish) ring.
	return convexHull(pg)
}

// convexHull computes the hull with the monotone-chain algorithm (test-only
// reference construction).
func convexHull(pts []Point) Polygon {
	if len(pts) < 3 {
		return Polygon(pts)
	}
	sorted := append([]Point(nil), pts...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].Less(sorted[i]) {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	var lower, upper []Point
	for _, p := range sorted {
		for len(lower) >= 2 && Orient(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		for len(upper) >= 2 && Orient(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	return Polygon(append(lower[:len(lower)-1], upper[:len(upper)-1]...))
}

func TestPolygonAreaOrientation(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	if sq.SignedArea() != 100 {
		t.Errorf("ccw signed area = %v", sq.SignedArea())
	}
	cw := Polygon{Pt(0, 0), Pt(0, 10), Pt(10, 10), Pt(10, 0)}
	if cw.SignedArea() != -100 {
		t.Errorf("cw signed area = %v", cw.SignedArea())
	}
	fixed := cw.Clone().EnsureCCW()
	if fixed.SignedArea() != 100 {
		t.Errorf("EnsureCCW signed area = %v", fixed.SignedArea())
	}
	if cw.Area() != 100 {
		t.Errorf("abs area = %v", cw.Area())
	}
}

func TestPolygonContains(t *testing.T) {
	pg := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	if !pg.Contains(Pt(5, 5)) {
		t.Error("interior")
	}
	if !pg.Contains(Pt(0, 5)) || !pg.Contains(Pt(10, 10)) {
		t.Error("boundary should be contained")
	}
	if pg.ContainsStrict(Pt(0, 5)) {
		t.Error("boundary should not be strictly contained")
	}
	if pg.Contains(Pt(-1, 5)) || pg.Contains(Pt(5, 11)) {
		t.Error("exterior")
	}
}

func TestPolygonContainsNonConvex(t *testing.T) {
	// A U-shape: the notch must be outside.
	u := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(7, 10), Pt(7, 3), Pt(3, 3), Pt(3, 10), Pt(0, 10)}
	if u.Contains(Pt(5, 7)) {
		t.Error("notch interior should be outside")
	}
	if !u.Contains(Pt(1, 9)) || !u.Contains(Pt(9, 9)) || !u.Contains(Pt(5, 1)) {
		t.Error("arms and base should be inside")
	}
}

func TestPolygonDedup(t *testing.T) {
	pg := Polygon{Pt(0, 0), Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(10, 10), Pt(0, 10), Pt(0, 0)}
	d := pg.Dedup()
	if len(d) != 4 {
		t.Errorf("dedup left %d vertices: %v", len(d), d)
	}
}

func TestPolygonEdgesClose(t *testing.T) {
	pg := Polygon{Pt(0, 0), Pt(10, 0), Pt(5, 8)}
	es := pg.Edges()
	if len(es) != 3 {
		t.Fatalf("edges = %d", len(es))
	}
	if es[2].B != pg[0] {
		t.Error("last edge should close the ring")
	}
}

func TestPolygonBoundsCentroidAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pg := randConvex(rng, 8)
	b := pg.Bounds()
	// Monte Carlo area estimate.
	in := 0
	const n = 200000
	for i := 0; i < n; i++ {
		p := Pt(b.MinX+rng.Float64()*b.W(), b.MinY+rng.Float64()*b.H())
		if pg.Contains(p) {
			in++
		}
	}
	est := b.Area() * float64(in) / n
	if rel := math.Abs(est-pg.Area()) / pg.Area(); rel > 0.05 {
		t.Errorf("Monte Carlo area %v vs shoelace %v (rel %v)", est, pg.Area(), rel)
	}
}
