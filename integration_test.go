package airindex

// Cross-structure integration tests: every index structure, the paged
// D-tree, and the byte-level client decoder must agree on the answer for
// arbitrary subdivisions and queries (up to valid-scope boundary ties).

import (
	"math/rand"
	"sync"
	"testing"

	"airindex/internal/broadcast"
	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/experiment"
	"airindex/internal/geom"
	"airindex/internal/wire"
)

func TestCrossStructureConsistency(t *testing.T) {
	seeds := []int64{1, 2, 3}
	sizes := []int{3, 7, 20, 90}
	if testing.Short() {
		seeds = seeds[:1]
		sizes = []int{3, 20}
	}
	for _, seed := range seeds {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			area := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
			sites := make([]geom.Point, n)
			for i := range sites {
				sites[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			}
			b, err := experiment.Build(dataset.Dataset{Name: "fuzz", Area: area, Sites: sites}, seed)
			if err != nil {
				t.Fatalf("seed %d n %d: %v", seed, n, err)
			}
			sub := b.Sub
			for _, capacity := range []int{64, 512} {
				idxs, err := b.Indexes(capacity)
				if err != nil {
					t.Fatalf("seed %d n %d cap %d: %v", seed, n, capacity, err)
				}
				paged, err := b.DTree.Page(wire.DTreeParams(capacity))
				if err != nil {
					t.Fatal(err)
				}
				packets, err := paged.Flatten().EncodePackets()
				if err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 400; q++ {
					p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
					want := sub.Locate(p)
					check := func(name string, got int) {
						t.Helper()
						if got != want && (got < 0 || !sub.Regions[got].Poly.Contains(p)) {
							t.Fatalf("seed %d n %d cap %d %s: query %v got %d want %d",
								seed, n, capacity, name, p, got, want)
						}
					}
					for _, idx := range idxs {
						got, _ := idx.Locate(p)
						check(idx.Name(), got)
					}
					cgot, _, err := core.ClientLocate(packets, capacity, p)
					if err != nil {
						t.Fatal(err)
					}
					// The codec narrows to float32; allow boundary slack.
					if cgot != want && !sub.Regions[cgot].Poly.Contains(p) {
						if !nearBoundary(sub.Regions[cgot].Poly, p, 0.05) {
							t.Fatalf("seed %d n %d cap %d codec: query %v got %d want %d",
								seed, n, capacity, p, cgot, want)
						}
					}
				}
			}
		}
	}
}

func nearBoundary(pg geom.Polygon, p geom.Point, tol float64) bool {
	for _, e := range pg.Edges() {
		ab := e.B.Sub(e.A)
		tt := p.Sub(e.A).Dot(ab) / ab.Dot(ab)
		if tt < 0 {
			tt = 0
		} else if tt > 1 {
			tt = 1
		}
		if p.Dist(geom.Lerp(e.A, e.B, tt)) <= tol {
			return true
		}
	}
	return false
}

// TestConcurrentQueries exercises read-only query paths from many
// goroutines over one shared System (run with -race in CI).
func TestConcurrentQueries(t *testing.T) {
	sys, err := New(testSites(120, 9), Config{PacketCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				p := Pt(rng.Float64()*10000, rng.Float64()*10000)
				if _, err := sys.Locate(p); err != nil {
					errCh <- err
					return
				}
				if _, err := sys.Access(p, rng.Float64()*float64(st.CyclePackets)); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestFacadeSweepAgainstHarness ties the public facade to the measurement
// harness: for every index kind, at a small and a large packet, the facade
// and the harness's Index report the same index size, answer the same
// region, and cost the same access under the (1, m) schedule the harness
// derives from that size.
func TestFacadeSweepAgainstHarness(t *testing.T) {
	const seed = 77
	ds := dataset.Uniform(100, seed)
	b, err := experiment.Build(ds, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{128, 1024} {
		idxs, err := b.Indexes(capacity)
		if err != nil {
			t.Fatal(err)
		}
		bucketPackets := wire.DTreeParams(capacity).DataBucketPackets()
		for _, kind := range []IndexKind{DTree, TrianTree, TrapTree, RStarTree} {
			var idx experiment.Index
			for _, x := range idxs {
				if x.Name() == kind.String() {
					idx = x
				}
			}
			if idx == nil {
				t.Fatalf("capacity %d: harness has no %v index", capacity, kind)
			}
			sys, err := New(ds.Sites, Config{Area: ds.Area, Index: kind, PacketCapacity: capacity, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			st := sys.Stats()
			if st.IndexPackets != idx.IndexPackets() || st.IndexBytes != idx.SizeBytes() {
				t.Fatalf("capacity %d %v: facade index %d packets / %d bytes, harness %d / %d",
					capacity, kind, st.IndexPackets, st.IndexBytes, idx.IndexPackets(), idx.SizeBytes())
			}
			n := b.Sub.N()
			m := broadcast.OptimalM(idx.IndexPackets(), n*bucketPackets)
			sched, err := broadcast.NewSchedule(idx.IndexPackets(), n, bucketPackets, m)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed + int64(capacity)))
			for q := 0; q < 2000; q++ {
				p := Pt(ds.Area.MinX+rng.Float64()*ds.Area.W(), ds.Area.MinY+rng.Float64()*ds.Area.H())
				at := rng.Float64() * float64(sched.CycleLen())
				wantID, trace := idx.Locate(p)
				got, err := sys.Locate(p)
				if err != nil || got != wantID {
					t.Fatalf("capacity %d %v: query %v: facade region %d (%v), harness %d", capacity, kind, p, got, err, wantID)
				}
				want, err := sched.Access(at, broadcast.SearchTrace{Bucket: wantID, IndexOffsets: trace})
				if err != nil {
					t.Fatal(err)
				}
				cost, err := sys.Access(p, at)
				if err != nil || cost != want {
					t.Fatalf("capacity %d %v: query %v at %.1f: facade cost %+v (%v), harness %+v", capacity, kind, p, at, cost, err, want)
				}
			}
		}
	}
}
