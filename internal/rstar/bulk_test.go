package rstar

import (
	"math/rand"
	"sort"
	"testing"

	"airindex/internal/geom"
)

func TestBulkLoadSTRStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, n := range []int{1, 5, 50, 500} {
		items := make([]Entry, n)
		for i := range items {
			items[i] = Entry{Rect: randRect(rng), Data: i}
		}
		tr, err := BulkLoadSTR(items, 8)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		// Structural sanity: uniform leaf depth, covering rects tight,
		// packed nodes within capacity (STR may underfill the min bound,
		// so CheckInvariants' min-fill check does not apply to the tail
		// nodes; check the rest manually).
		var walk func(nd *node) error
		walk = func(nd *node) error {
			if len(nd.entries) > 8 {
				t.Fatalf("node with %d entries", len(nd.entries))
			}
			for _, e := range nd.entries {
				if nd.isLeaf() {
					continue
				}
				if e.Child.level != nd.level-1 {
					t.Fatal("level gap")
				}
				if !rectsAlmostEqual(e.Rect, e.Child.rect()) {
					t.Fatal("stale covering rect")
				}
				if err := walk(e.Child); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(tr.root); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBulkLoadSTRSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	items := make([]Entry, 400)
	rects := make([]geom.Rect, 400)
	for i := range items {
		rects[i] = randRect(rng)
		items[i] = Entry{Rect: rects[i], Data: i}
	}
	tr, err := BulkLoadSTR(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 800; q++ {
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
	}
}

func TestBulkLoadErrors(t *testing.T) {
	if _, err := BulkLoadSTR(nil, 8); err == nil {
		t.Error("empty bulk load should fail")
	}
	if _, err := BulkLoadSTR([]Entry{{}}, 1); err == nil {
		t.Error("max entries 1 should fail")
	}
}
