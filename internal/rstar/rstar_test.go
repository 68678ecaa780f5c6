package rstar

import (
	"math/rand"
	"sort"
	"testing"

	"airindex/internal/geom"
)

func randRect(rng *rand.Rand) geom.Rect {
	x, y := rng.Float64()*1000, rng.Float64()*1000
	return geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*80, MaxY: y + rng.Float64()*80}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 0); err == nil {
		t.Error("max entries 1 should fail")
	}
	tr, err := New(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MinEntries() != 4 {
		t.Errorf("default min = %d, want 40%% of max", tr.MinEntries())
	}
	tr2, _ := New(10, 9)
	if tr2.MinEntries() > 5 {
		t.Errorf("min clamped to %d, want <= max/2", tr2.MinEntries())
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _ := New(4, 2)
	rects := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		{MinX: 20, MinY: 20, MaxX: 30, MaxY: 30},
		{MinX: 5, MinY: 5, MaxX: 15, MaxY: 15},
	}
	for i, r := range rects {
		tr.Insert(r, i)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.SearchPoint(geom.Pt(7, 7))
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("SearchPoint = %v", got)
	}
	if got := tr.SearchPoint(geom.Pt(500, 500)); len(got) != 0 {
		t.Errorf("empty search = %v", got)
	}
}

func TestInvariantsUnderRandomInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, m := range []int{3, 8, 25} {
		tr, _ := New(m, 0)
		for i := 0; i < 500; i++ {
			tr.Insert(randRect(rng), i)
			if i%50 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("M=%d after %d inserts: %v", m, i+1, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("M=%d final: %v", m, err)
		}
		if tr.Len() != 500 {
			t.Fatalf("Len = %d", tr.Len())
		}
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	tr, _ := New(8, 0)
	var rects []geom.Rect
	for i := 0; i < 400; i++ {
		r := randRect(rng)
		rects = append(rects, r)
		tr.Insert(r, i)
	}
	for q := 0; q < 1000; q++ {
		p := geom.Pt(rng.Float64()*1100, rng.Float64()*1100)
		got := tr.SearchPoint(p)
		sort.Ints(got)
		var want []int
		for i, r := range rects {
			if r.Contains(p) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %v: got %v want %v", p, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("point %v: got %v want %v", p, got, want)
			}
		}
	}
	// Window queries.
	for q := 0; q < 300; q++ {
		w := randRect(rng)
		got := tr.SearchRect(w)
		sort.Ints(got)
		var want []int
		for i, r := range rects {
			if r.Intersects(w) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("window %v: %d hits, want %d", w, len(got), len(want))
		}
	}
}
