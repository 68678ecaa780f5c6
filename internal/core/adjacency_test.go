package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

// bruteNeighbors derives adjacency straight from the region polygons,
// independently of the ring-edge keys BuildAdjacency uses: an edge whose
// midpoint is equidistant from exactly two sites lies on those sites'
// bisector, so the two cells share that edge. Border edges have a unique
// nearest site and drop out of the tolerance test.
func bruteNeighbors(sites []geom.Point, polys []geom.Polygon) [][]int32 {
	const tol = 1e-5
	out := make([][]int32, len(polys))
	for i, pg := range polys {
		seen := make(map[int32]bool)
		for e := 0; e < len(pg); e++ {
			a, b := pg[e], pg[(e+1)%len(pg)]
			m := geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
			near := -1
			for j, s := range sites {
				if j == i {
					continue
				}
				if near < 0 || m.Dist(sites[near]) > m.Dist(s) {
					near = j
				}
			}
			if near >= 0 && m.Dist(sites[near])-m.Dist(sites[i]) <= tol {
				seen[int32(near)] = true
			}
		}
		for j := range seen {
			out[i] = append(out[i], j)
		}
		sort.Slice(out[i], func(x, y int) bool { return out[i][x] < out[i][y] })
	}
	return out
}

func TestBuildAdjacencyMatchesGeometry(t *testing.T) {
	for _, n := range []int{1, 2, 7, 60} {
		sub, sites := testutil.RandomVoronoi(t, n, int64(9100+n))
		adj, err := BuildAdjacency(sub, sub.Area, sites)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		polys := make([]geom.Polygon, sub.N())
		for i := range polys {
			polys[i] = sub.Regions[i].Poly
		}
		want := bruteNeighbors(sites, polys)
		for i := 0; i < sub.N(); i++ {
			got := adj.Neighbors(i)
			if len(got) == 0 && len(want[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(append([]int32{}, got...), want[i]) {
				t.Fatalf("n=%d region %d: neighbors %v, geometric ground truth %v", n, i, got, want[i])
			}
		}
	}
}

func TestAdjacencyContainsMatchesLocate(t *testing.T) {
	sub, sites := testutil.RandomVoronoi(t, 80, 9201)
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9202))
	for trial := 0; trial < 500; trial++ {
		p := geom.Pt(sub.Area.MinX+rng.Float64()*sub.Area.W(), sub.Area.MinY+rng.Float64()*sub.Area.H())
		home := sub.Locate(p)
		if !adj.Contains(home, p) {
			t.Fatalf("point %v: region %d contains it per Locate, adjacency test says no", p, home)
		}
		// Any other region claiming p must be a genuine distance tie.
		own := p.Dist2(sites[home])
		for i := range sites {
			if i == home || !adj.Contains(i, p) {
				continue
			}
			if d := p.Dist2(sites[i]); d > own+2*geom.Eps {
				t.Fatalf("point %v: region %d (dist² %v) claims it over region %d (dist² %v)", p, i, d, home, own)
			}
		}
	}
	if adj.Contains(0, geom.Pt(sub.Area.MinX-1, sub.Area.MinY-1)) {
		t.Fatal("a point outside the service area must not be contained")
	}
}

// TestAdjacencySettle: from any start region, Settle must end on a region
// containing the point — for interior points and for points on the area
// border, where clients settle the seeds their clamped positions locate to.
func TestAdjacencySettle(t *testing.T) {
	sub, sites := testutil.RandomVoronoi(t, 80, 9203)
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9204))
	a := sub.Area
	for trial := 0; trial < 200; trial++ {
		p := geom.Pt(a.MinX+rng.Float64()*a.W(), a.MinY+rng.Float64()*a.H())
		switch trial % 4 {
		case 1:
			p.X = a.MinX
		case 2:
			p.Y = a.MaxY
		}
		own := p.Dist2(sites[sub.Locate(p)])
		for i := range sites {
			got := adj.Settle(i, p)
			if !adj.Contains(got, p) {
				t.Fatalf("point %v: settled from %d on region %d, which does not contain it", p, i, got)
			}
			if d := p.Dist2(sites[got]); d > own+2*geom.Eps {
				t.Fatalf("point %v: settled on region %d (dist² %v), nearest site is at dist² %v", p, got, d, own)
			}
		}
	}
	if got := adj.Settle(-1, geom.Pt(1, 1)); got != -1 {
		t.Fatalf("out-of-range start settled to %d", got)
	}
}

func TestAdjacencyKNNMatchesBrute(t *testing.T) {
	sub, sites := testutil.RandomVoronoi(t, 70, 9301)
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9302))
	for trial := 0; trial < 300; trial++ {
		p := geom.Pt(sub.Area.MinX+rng.Float64()*sub.Area.W(), sub.Area.MinY+rng.Float64()*sub.Area.H())
		seed := sub.Locate(p)
		for _, k := range []int{1, 3, 8, len(sites), len(sites) + 5} {
			got := adj.KNN(seed, p, k)
			idx := make([]int32, len(sites))
			for i := range idx {
				idx[i] = int32(i)
			}
			sort.Slice(idx, func(a, b int) bool {
				da, db := p.Dist2(sites[idx[a]]), p.Dist2(sites[idx[b]])
				if da != db {
					return da < db
				}
				return idx[a] < idx[b]
			})
			want := idx
			if k < len(want) {
				want = want[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%v k=%d: knn walk %v, brute %v", p, k, got, want)
			}
		}
	}
}

func TestAdjacencyWindowMatchesBrute(t *testing.T) {
	sub, sites := testutil.RandomVoronoi(t, 70, 9401)
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9402))
	for trial := 0; trial < 200; trial++ {
		p := geom.Pt(sub.Area.MinX+rng.Float64()*sub.Area.W(), sub.Area.MinY+rng.Float64()*sub.Area.H())
		hw := 50 + rng.Float64()*3000
		hh := 50 + rng.Float64()*3000
		w := geom.Rect{MinX: p.X - hw, MinY: p.Y - hh, MaxX: p.X + hw, MaxY: p.Y + hh}
		got := adj.Window(sub.Locate(p), w)
		var want []int32
		for i := range sub.Regions {
			if RegionIntersectsRect(sub.Regions[i].Poly, w) {
				want = append(want, int32(i))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%v: window walk %v, polygon brute %v", w, got, want)
		}
	}
}

func TestAdjacencyPacketRoundTrip(t *testing.T) {
	sub, sites := testutil.RandomVoronoi(t, 45, 9501)
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{64, 128, 4096} {
		pkts, err := adj.EncodePackets(capacity)
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		count, err := AdjacencyPacketCount(pkts[0])
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if count != len(pkts) {
			t.Fatalf("capacity %d: header says %d packets, encoder produced %d", capacity, count, len(pkts))
		}
		back, err := DecodeAdjacency(pkts)
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if !reflect.DeepEqual(adj, back) {
			t.Fatalf("capacity %d: decoded table differs from the original", capacity)
		}
	}

	// Non-identity global ids (a sharded channel's table) must survive too.
	withIDs := *adj
	withIDs.IDs = make([]int32, adj.N())
	for i := range withIDs.IDs {
		withIDs.IDs[i] = int32(1000 + i*3)
	}
	pkts, err := withIDs.EncodePackets(128)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAdjacency(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&withIDs, back) {
		t.Fatal("decoded table lost the global-id mapping")
	}
}

func TestAdjacencyDecodeRejectsCorruption(t *testing.T) {
	sub, sites := testutil.RandomVoronoi(t, 30, 9601)
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 128
	pkts, err := adj.EncodePackets(capacity)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() [][]byte {
		out := make([][]byte, len(pkts))
		for i, p := range pkts {
			out[i] = append([]byte(nil), p...)
		}
		return out
	}

	cases := []struct {
		name   string
		mangle func([][]byte) [][]byte
	}{
		{"truncated packet list", func(p [][]byte) [][]byte { return p[:len(p)-1] }},
		{"no packets", func(p [][]byte) [][]byte { return nil }},
		{"bad magic", func(p [][]byte) [][]byte { p[0][0] = 'X'; return p }},
		{"bad version", func(p [][]byte) [][]byte { p[0][2] = 99; return p }},
		{"zero packet count", func(p [][]byte) [][]byte { p[0][3], p[0][4] = 0, 0; return p }},
		{"hostile region count", func(p [][]byte) [][]byte { p[0][5], p[0][6], p[0][7], p[0][8] = 0xff, 0xff, 0xff, 0x7f; return p }},
		{"short packet", func(p [][]byte) [][]byte { p[len(p)-1] = p[len(p)-1][:capacity-1]; return p }},
		{"nonzero spine start", func(p [][]byte) [][]byte { p[0][adjHeaderSize] = 7; return p }},
		{"neighbor out of range", func(p [][]byte) [][]byte {
			// First neighbor entry sits right behind the n+1 spine words.
			off := adjHeaderSize + (adj.N()+1)*4
			p[off/capacity][off%capacity] = 0xee
			p[off/capacity][off%capacity+1] = 0xee
			return p
		}},
	}
	for _, tc := range cases {
		if _, err := DecodeAdjacency(tc.mangle(clone())); err == nil {
			t.Fatalf("%s: corrupt table decoded without error", tc.name)
		}
	}

	// Symmetry breakage that stays in range must still be rejected.
	broken := *adj
	broken.Adj = append([]int32(nil), adj.Adj...)
	if len(broken.Adj) > 0 {
		// Rewrite region 0's first neighbor to a region that does not list 0
		// back (its own first neighbor's first neighbor, if distinct).
		j := broken.Adj[0]
		for cand := int32(0); int(cand) < adj.N(); cand++ {
			if cand == j || int(cand) == 0 || broken.hasNeighbor(int(cand), 0) {
				continue
			}
			broken.Adj[0] = cand
			if err := broken.Validate(); err == nil {
				t.Fatalf("asymmetric table (region 0 -> %d) validated", cand)
			}
			break
		}
	}
}

func TestAdjacencyPacketCountErrors(t *testing.T) {
	for _, tc := range [][]byte{nil, []byte("AJ"), make([]byte, adjHeaderSize-1)} {
		if _, err := AdjacencyPacketCount(tc); err == nil {
			t.Fatalf("%d-byte header parsed without error", len(tc))
		}
	}
}

func TestSetAdjacencySizeMismatch(t *testing.T) {
	sub, sites := testutil.RandomVoronoi(t, 12, 9701)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(512))
	if err != nil {
		t.Fatal(err)
	}
	ft := paged.Flatten().Flat
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	small := *adj
	small.Sites = small.Sites[:len(small.Sites)-1]
	if err := ft.SetAdjacency(&small); err == nil {
		t.Fatal("arena accepted a table covering the wrong region count")
	}
	if err := ft.SetAdjacency(adj); err != nil {
		t.Fatal(err)
	}
	if got := ft.Adjacency(); got != adj {
		t.Fatalf("attached table not returned: %p vs %p", got, adj)
	}
}
