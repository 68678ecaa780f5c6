package distidx

import (
	"math/rand"
	"testing"

	"airindex/internal/broadcast"
	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

// NewWithDepth builds the organization with an explicit cut depth.
func NewWithDepth(tree *core.Tree, params wire.Params, cutDepth int) (*Index, error) {
	return newWithDepth(tree, tree.Flatten(params), params, cutDepth)
}

func buildTree(t *testing.T, n int, seed int64) *core.Tree {
	t.Helper()
	sub, _ := testutil.RandomVoronoi(t, n, seed)
	tree, err := core.Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestStructure(t *testing.T) {
	tree := buildTree(t, 120, 401)
	params := wire.DTreeParams(256)
	for d := 1; d <= 6; d++ {
		idx, err := NewWithDepth(tree, params, d)
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		if got, want := idx.Segments(), 1<<d; got > want {
			t.Errorf("depth %d: %d segments, at most %d expected", d, got, want)
		}
		// Every region appears in exactly one segment, in leaf order.
		seen := map[int]bool{}
		count := 0
		for _, seg := range idx.segments {
			for _, b := range seg.buckets {
				if seen[b] {
					t.Fatalf("depth %d: bucket %d in two segments", d, b)
				}
				seen[b] = true
				count++
			}
		}
		if count != tree.Sub.N() {
			t.Fatalf("depth %d: %d buckets of %d", d, count, tree.Sub.N())
		}
		// Cycle accounting.
		data := idx.Tree.Sub.N() * idx.Params.DataBucketPackets()
		if idx.CycleLen() != idx.TotalIndexPackets()+data {
			t.Fatalf("depth %d: cycle %d != index %d + data %d",
				d, idx.CycleLen(), idx.TotalIndexPackets(), data)
		}
	}
}

// arena pages the tree as the (1, m) broadcast does and returns its arena,
// the oracle distributed access must agree with.
func arena(t *testing.T, tree *core.Tree, params wire.Params) *core.FlatPaged {
	t.Helper()
	paged, err := tree.Page(params)
	if err != nil {
		t.Fatal(err)
	}
	return paged.Flatten()
}

func TestAccessResolvesCorrectly(t *testing.T) {
	tree := buildTree(t, 150, 402)
	idx, err := New(tree, wire.DTreeParams(256))
	if err != nil {
		t.Fatal(err)
	}
	fp := arena(t, tree, idx.Params)
	rng := rand.New(rand.NewSource(403))
	for q := 0; q < 8000; q++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		tm := rng.Float64() * float64(idx.CycleLen())
		c, err := idx.Access(p, tm)
		if err != nil {
			t.Fatalf("query %v at %v: %v", p, tm, err)
		}
		if want, _ := fp.Locate(p); c.Bucket != want {
			t.Fatalf("query %v: bucket %d want %d", p, c.Bucket, want)
		}
		if c.Latency < float64(c.TuneData) {
			t.Fatalf("latency %v below data time", c.Latency)
		}
		if c.Latency > 2.5*float64(idx.CycleLen()) {
			t.Fatalf("latency %v exceeds 2.5 cycles", c.Latency)
		}
		if c.TuneIndex < 1 || c.TuneProbe != 1 {
			t.Fatalf("odd tuning %+v", c)
		}
	}
}

func TestDistributedBeatsOneMOnLatency(t *testing.T) {
	// The headline property: for the same tree and packet size, distributed
	// indexing yields lower expected latency than (1, m) with optimal m,
	// at comparable tuning.
	tree := buildTree(t, 300, 404)
	params := wire.DTreeParams(512)
	dist, err := New(tree, params)
	if err != nil {
		t.Fatal(err)
	}
	fp := arena(t, tree, params)
	n := tree.Sub.N()
	bp := params.DataBucketPackets()
	m := broadcast.OptimalM(fp.IndexPackets(), n*bp)
	sched, err := broadcast.NewSchedule(fp.IndexPackets(), n, bp, m)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(405))
	var distLat, distTune, omLat, omTune float64
	const q = 30000
	for i := 0; i < q; i++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		tm := rng.Float64() * float64(dist.CycleLen())
		dc, err := dist.Access(p, tm)
		if err != nil {
			t.Fatal(err)
		}
		distLat += dc.Latency
		distTune += float64(dc.TuneIndex)

		bucket, trace := fp.Locate(p)
		oc, err := sched.Access(rng.Float64()*float64(sched.CycleLen()),
			broadcast.SearchTrace{Bucket: bucket, IndexOffsets: trace})
		if err != nil {
			t.Fatal(err)
		}
		omLat += oc.Latency
		omTune += float64(oc.TuneIndex)
	}
	distLat, distTune, omLat, omTune = distLat/q, distTune/q, omLat/q, omTune/q
	t.Logf("distributed: latency %.1f tuning %.2f (m=%d, cycle %d); (1,m): latency %.1f tuning %.2f (m=%d, cycle %d)",
		distLat, distTune, dist.Segments(), dist.CycleLen(), omLat, omTune, m, sched.CycleLen())
	if distLat >= omLat {
		t.Errorf("distributed latency %.1f not below (1,m) latency %.1f", distLat, omLat)
	}
	if distTune > omTune*1.6 {
		t.Errorf("distributed tuning %.2f much worse than (1,m) %.2f", distTune, omTune)
	}
}

func TestErrors(t *testing.T) {
	tree := buildTree(t, 30, 406)
	if _, err := NewWithDepth(tree, wire.DTreeParams(256), 0); err == nil {
		t.Error("cut depth 0 should fail")
	}
	if _, err := NewWithDepth(tree, wire.Params{}, 1); err == nil {
		t.Error("invalid params should fail")
	}
	single, _ := testutil.RandomVoronoi(t, 1, 407)
	st, err := core.Build(single)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(st, wire.DTreeParams(256)); err == nil {
		t.Error("single-region tree should fail")
	}
}

func TestDeepCutDegradesGracefully(t *testing.T) {
	tree := buildTree(t, 40, 408)
	// A cut at (almost) the full height makes nearly every node replicated.
	idx, err := NewWithDepth(tree, wire.DTreeParams(128), tree.Height())
	if err != nil {
		t.Fatal(err)
	}
	fp := arena(t, tree, idx.Params)
	rng := rand.New(rand.NewSource(409))
	for q := 0; q < 1500; q++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		c, err := idx.Access(p, rng.Float64()*float64(idx.CycleLen()))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := fp.Locate(p); c.Bucket != want {
			t.Fatalf("bucket %d want %d", c.Bucket, want)
		}
	}
}
