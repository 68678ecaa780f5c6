package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

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

// TestFlatMatchesPointerTree: over random Voronoi datasets of several sizes
// and packet capacities, the arena encodes the pointer tree's packets byte
// for byte, and answers uniform point queries (which land far from the
// float32-narrowed partition lines) with the pointer tree's region and
// early-termination trace.
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
// lines, where tie-breaking is most fragile: both the float64 lines the
// build partitioned on and the float32 lines the arena and the packets
// carry. The arena must answer every probe with the region and the trace
// the wire client decodes from the encoded packets. Every cut-line probe
// must land in a region within the documented 1e-3 of it. Probes exactly
// on a partition vertex hit the open degenerate-input defect (ROADMAP.md,
// "Right answers on degenerate inputs"): a point on the boundary of a
// node's subspace can be routed into a subtree whose regions do not touch
// it. Their misses are pinned per probe set (the tree's float64 vertices,
// the arena's float32 ones) so neither can grow; the fix brings both
// bounds to zero.
func TestFlatMatchesOnBandBoundaries(t *testing.T) {
	const knownVertexMisses64, knownVertexMisses32 = 17, 76
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
	var vertices, cuts []geom.Point
	for _, n := range tree.Nodes {
		for _, pl := range n.Polylines {
			vertices = append(vertices, pl...)
		}
		// Points exactly on the cut lines, in real coordinates.
		cuts = append(cuts, uncanon(n.Dim, geom.Pt(n.CutLo, 5000)), uncanon(n.Dim, geom.Pt(n.CutHi, 5000)))
	}
	v32, c32 := exactProbes(tree, fp.Flat)
	cuts = append(cuts, c32...)
	requireArenaWireAgree(t, "cut lines", fp, cuts)
	requireArenaWireAgree(t, "float64 partition vertices", fp, vertices)
	requireArenaWireAgree(t, "float32 partition vertices", fp, v32)
	for _, p := range cuts {
		if id, _ := fp.Locate(p); !nearRegionBoundary(tree, p, id, 1e-3) {
			t.Errorf("cut-line probe %v: region %d is farther than 1e-3 away", p, id)
		}
	}
	// On the float64 set the float64 arena descent missed 85 and the wire
	// client 17; the arena now answers as the client does.
	for _, c := range []struct {
		name  string
		probe []geom.Point
		known int
	}{
		{"float64", vertices, knownVertexMisses64},
		{"float32", v32, knownVertexMisses32},
	} {
		misses := 0
		for _, p := range c.probe {
			if id, _ := fp.Locate(p); !nearRegionBoundary(tree, p, id, 1e-3) {
				misses++
			}
		}
		t.Logf("%d of %d %s partition-vertex probes land in a region farther than 1e-3 away", misses, len(c.probe), c.name)
		if misses > c.known {
			t.Errorf("%d %s partition-vertex probes miss the ground truth, up from %d", misses, c.name, c.known)
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
		if got, _ := fp.Locate(p); got != tree.Locate(p) {
			t.Fatalf("query %v: flat %d, pointer %d", p, got, tree.Locate(p))
		}
	}
}

// TestFlatLocateZeroAlloc verifies the arena's allocation claim: the paged
// descent with a reused buffer allocates nothing per query, with or without
// the first-packet early termination.
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
	trace := make([]int, 0, 64)
	if avg := testing.AllocsPerRun(500, func() {
		_, trace = fp.LocateInto(pts[i%len(pts)], trace)
		i++
	}); avg != 0 {
		t.Errorf("FlatPaged.LocateInto allocates %v per query", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		_, trace = fp.LocateWithoutEarlyTerminationInto(pts[i%len(pts)], trace)
		i++
	}); avg != 0 {
		t.Errorf("FlatPaged.LocateWithoutEarlyTerminationInto allocates %v per query", avg)
	}
}

// TestFlatNodeRecordSize pins the arena record at one 64-byte cache line.
func TestFlatNodeRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(FlatNode{}); size != 64 {
		t.Fatalf("FlatNode is %d bytes, want 64", size)
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
	if got, _ := fp.Locate(geom.Pt(5000, 5000)); got != 0 {
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
