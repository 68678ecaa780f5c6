package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

// exactProbes returns points exactly on the lines the arena (and so the
// wire) carries: every partition vertex; one point on each node's CutLo and
// CutHi line at wire precision, taken from the pointer tree because the
// arena keeps them only where the wire does; and one point on each finite
// band limit (lo, hi), the lines the side kernel compares against.
func exactProbes(tree *Tree, ft *FlatTree) (vertices, cuts []geom.Point) {
	line := func(d Dimension, x float32) geom.Point { return uncanon(d, geom.Pt(float64(x), 5000)) }
	for i := range ft.nodes {
		n := &ft.nodes[i]
		for _, sp := range ft.polys[n.PolyFirst:n.PolyEnd] {
			for _, cp := range ft.pts[sp.Off : sp.Off+sp.N] {
				x, y := cp.wire(n.Dim)
				vertices = append(vertices, geom.Pt(float64(x), float64(y)))
			}
		}
		tn := tree.Nodes[i]
		cuts = append(cuts, line(n.Dim, float32(tn.CutLo)), line(n.Dim, float32(tn.CutHi)))
		for _, x := range []float32{n.lo, n.hi} {
			if !math.IsInf(float64(x), 0) {
				cuts = append(cuts, line(n.Dim, x))
			}
		}
	}
	return vertices, cuts
}

// requireArenaWireAgree checks that the arena and the wire client decoding
// the arena's packets answer every query with the same region and the same
// packet trace.
func requireArenaWireAgree(t testing.TB, label string, fp *FlatPaged, queries []geom.Point) {
	t.Helper()
	packets, err := fp.EncodePackets()
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	capacity := fp.Params.PacketCapacity
	get := func(k int) ([]byte, error) {
		if k < 0 || k >= len(packets) {
			return nil, fmt.Errorf("packet %d out of range", k)
		}
		return packets[k], nil
	}
	var cl ClientLocator
	var trace []int
	for _, p := range queries {
		var id int
		id, trace = fp.LocateInto(p, trace)
		if len(packets) == 0 {
			continue // single region: no index on air
		}
		wantID, wantTrace, err := cl.Locate(get, capacity, p)
		if err != nil {
			t.Fatalf("%s: query %v: client: %v", label, p, err)
		}
		if id != wantID || !sameTrace(trace, wantTrace) {
			t.Fatalf("%s: query %v: arena (%d, %v), wire (%d, %v)", label, p, id, trace, wantID, wantTrace)
		}
	}
}

// TestArenaWireAgree: on the degenerate-input generator (lattice, diagonal
// and uniform sites; uniform, lattice, diagonal and area-edge queries) and
// on points exactly on the arena's own lines, the arena and the wire
// decoder give the same answer and the same trace for every query.
func TestArenaWireAgree(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		sub, err := voronoi.Subdivision(testutil.BigArea, testutil.DegenerateSites(40, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tree, err := Build(sub)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		queries := testutil.DegenerateQueries(2000, seed)
		for _, capacity := range []int{64, 128, 1024} {
			paged, err := tree.Page(wire.DTreeParams(capacity))
			if err != nil {
				t.Fatal(err)
			}
			fp := paged.Flatten()
			vertices, cuts := exactProbes(tree, fp.Flat)
			label := fmt.Sprintf("seed %d capacity %d", seed, capacity)
			requireArenaWireAgree(t, label, fp, queries)
			requireArenaWireAgree(t, label, fp, vertices)
			requireArenaWireAgree(t, label, fp, cuts)
		}
	}
}

// FuzzArenaWireAgree lets the fuzzer pick the sites and the queries: the
// first byte picks the coordinate mode (odd: a 17 x 17 lattice of step 625,
// where sites are co-circular and queries land on Voronoi edges; even:
// 16-bit coordinates), the second the site count, and every following 4
// bytes a point, sites first. Inputs that yield no subdivision are skipped;
// for the rest the arena and the wire client must agree on every query and
// on every point of the arena's own lines, at two capacities.
func FuzzArenaWireAgree(f *testing.F) {
	f.Add([]byte{1, 6, 0, 0, 0, 0, 4, 0, 4, 0, 8, 0, 2, 0, 3, 0, 9, 0, 12, 0, 7, 0, 16, 0, 8, 0, 8, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 9, 1, 2, 3, 4, 200, 10, 30, 99, 5, 77, 250, 251, 0, 128, 64, 64, 9, 9, 190, 4, 33, 1, 8, 8, 100, 7, 150, 150, 20, 220, 60, 61, 62, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		lattice := data[0]%2 == 1
		nSites := 2 + int(data[1])%24
		var sites, queries []geom.Point
		seen := map[geom.Point]bool{}
		for b := data[2:]; len(b) >= 4; b = b[4:] {
			x, y := binary.LittleEndian.Uint16(b), binary.LittleEndian.Uint16(b[2:])
			var p geom.Point
			if lattice {
				p = geom.Pt(625*float64(x%17), 625*float64(y%17))
			} else {
				p = geom.Pt(float64(x)*10000/65535, float64(y)*10000/65535)
			}
			switch {
			case len(sites) < nSites && !seen[p]:
				seen[p] = true
				sites = append(sites, p)
			case len(sites) == nSites:
				queries = append(queries, p)
			}
		}
		if len(sites) < 2 {
			return
		}
		sub, err := voronoi.Subdivision(testutil.BigArea, sites)
		if err != nil {
			return
		}
		tree, err := Build(sub)
		if err != nil {
			return
		}
		for _, capacity := range []int{64, 256} {
			paged, err := tree.Page(wire.DTreeParams(capacity))
			if err != nil {
				t.Fatal(err)
			}
			fp := paged.Flatten()
			vertices, cuts := exactProbes(tree, fp.Flat)
			label := fmt.Sprintf("capacity %d", capacity)
			requireArenaWireAgree(t, label, fp, queries)
			requireArenaWireAgree(t, label, fp, vertices)
			requireArenaWireAgree(t, label, fp, cuts)
		}
	})
}
