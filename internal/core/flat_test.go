package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

// sameTrace compares packet traces element-wise.
func sameTrace(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlatMatchesPointerTree is the bit-identity property: over random
// Voronoi datasets of several sizes and packet capacities, the arena answers
// every point query, early-termination trace, and window query exactly as
// the pointer tree it was flattened from.
func TestFlatMatchesPointerTree(t *testing.T) {
	for _, n := range []int{1, 2, 7, 60, 250} {
		for _, capacity := range []int{64, 256, 2048} {
			t.Run(fmt.Sprintf("n=%d/cap=%d", n, capacity), func(t *testing.T) {
				sub, _ := testutil.RandomVoronoi(t, n, int64(1000+n))
				tree, err := Build(sub)
				if err != nil {
					t.Fatal(err)
				}
				paged, err := tree.Page(wire.DTreeParams(capacity))
				if err != nil {
					t.Fatal(err)
				}
				fp := paged.Flatten()
				ft := fp.Flat
				if len(ft.nodes) != len(tree.Nodes) {
					t.Fatalf("arena has %d nodes, tree %d", len(ft.nodes), len(tree.Nodes))
				}

				area := sub.Area
				rng := rand.New(rand.NewSource(int64(2000 + n + capacity)))
				var buf []int
				for q := 0; q < 3000; q++ {
					p := geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
					if got, want := ft.Locate(p), tree.Locate(p); got != want {
						t.Fatalf("query %v: flat region %d, pointer %d", p, got, want)
					}
					wantID, wantTrace := paged.Locate(p)
					gotID, gotTrace := fp.LocateInto(p, buf)
					buf = gotTrace
					if gotID != wantID || !sameTrace(gotTrace, wantTrace) {
						t.Fatalf("query %v: flat (%d, %v), pointer (%d, %v)", p, gotID, gotTrace, wantID, wantTrace)
					}
				}
				wantPk, err := paged.EncodePackets()
				if err != nil {
					t.Fatal(err)
				}
				gotPk, err := fp.EncodePackets()
				if err != nil {
					t.Fatal(err)
				}
				if len(gotPk) != len(wantPk) {
					t.Fatalf("flat encodes %d packets, pointer %d", len(gotPk), len(wantPk))
				}
				for k := range gotPk {
					if !bytes.Equal(gotPk[k], wantPk[k]) {
						t.Fatalf("packet %d differs between flat and pointer encodings", k)
					}
				}
			})
		}
	}
}

// TestFlatMatchesOnBandBoundaries aims queries at partition vertices and cut
// lines, where tie-breaking is most fragile.
func TestFlatMatchesOnBandBoundaries(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 120, 77)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(128))
	if err != nil {
		t.Fatal(err)
	}
	fp := paged.Flatten()
	var probes []geom.Point
	for _, n := range tree.Nodes {
		for _, pl := range n.Polylines {
			for _, p := range pl {
				probes = append(probes, p)
			}
		}
		// Points exactly on the cut lines, in real coordinates.
		probes = append(probes, uncanon(n.Dim, geom.Pt(n.CutLo, 5000)), uncanon(n.Dim, geom.Pt(n.CutHi, 5000)))
	}
	var buf []int
	for _, p := range probes {
		if got, want := fp.Flat.Locate(p), tree.Locate(p); got != want {
			t.Fatalf("probe %v: flat %d, pointer %d", p, got, want)
		}
		wantID, wantTrace := paged.Locate(p)
		var gotID int
		gotID, buf = fp.LocateInto(p, buf)
		if gotID != wantID || !sameTrace(buf, wantTrace) {
			t.Fatalf("probe %v: flat (%d, %v), pointer (%d, %v)", p, gotID, buf, wantID, wantTrace)
		}
	}
}

// TestFlatRunningExample pins the arena against the paper's Figure 1.
func TestFlatRunningExample(t *testing.T) {
	sub := testutil.RunningExample(t)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(64))
	if err != nil {
		t.Fatal(err)
	}
	fp := paged.Flatten()
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 2000; q++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if got, want := fp.Flat.Locate(p), tree.Locate(p); got != want {
			t.Fatalf("query %v: flat %d, pointer %d", p, got, want)
		}
	}
}

// TestFlatLocateZeroAlloc verifies the tentpole's allocation claim: the
// arena point query and the paged descent with a reused buffer allocate
// nothing per query.
func TestFlatLocateZeroAlloc(t *testing.T) {
	tree, _, area := buildVoronoiTree(t, 200, 55)
	paged, err := tree.Page(wire.DTreeParams(256))
	if err != nil {
		t.Fatal(err)
	}
	fp := paged.Flatten()
	rng := rand.New(rand.NewSource(56))
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
	}
	var i int
	if avg := testing.AllocsPerRun(500, func() {
		fp.Flat.Locate(pts[i%len(pts)])
		i++
	}); avg != 0 {
		t.Errorf("FlatTree.Locate allocates %v per query", avg)
	}
	trace := make([]int, 0, 64)
	if avg := testing.AllocsPerRun(500, func() {
		_, trace = fp.LocateInto(pts[i%len(pts)], trace)
		i++
	}); avg != 0 {
		t.Errorf("FlatPaged.LocateInto allocates %v per query", avg)
	}
}

// TestFlatSingleRegion covers the degenerate no-root arena.
func TestFlatSingleRegion(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 1, 5)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(256))
	if err != nil {
		t.Fatal(err)
	}
	fp := paged.Flatten()
	if got := fp.Flat.Locate(geom.Pt(5000, 5000)); got != 0 {
		t.Fatalf("single-region locate = %d", got)
	}
	id, trace := fp.LocateInto(geom.Pt(1, 1), nil)
	if id != 0 || len(trace) != 0 {
		t.Fatalf("single-region paged locate = (%d, %v)", id, trace)
	}
	pks, err := fp.EncodePackets()
	if err != nil || len(pks) != 0 {
		t.Fatalf("single-region encode = (%d packets, %v)", len(pks), err)
	}
}
