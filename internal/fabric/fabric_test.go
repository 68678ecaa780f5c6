package fabric

import (
	"io"
	"math/rand"
	"testing"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/stream"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

func testDatasets(t *testing.T) []dataset.Dataset {
	t.Helper()
	return []dataset.Dataset{
		dataset.Uniform(200, 7),
		dataset.Clustered("CLUSTERED-150", dataset.ClusterSpec{
			N: 150, Clusters: 5, Sigma: 600, UniformShare: 0.1, Seed: 11,
		}),
	}
}

func randomPoint(rng *rand.Rand, r geom.Rect) geom.Point {
	return geom.Pt(
		r.MinX+rng.Float64()*r.W(),
		r.MinY+rng.Float64()*r.H(),
	)
}

func TestPartitionBalancedAndTiling(t *testing.T) {
	for _, ds := range testDatasets(t) {
		for _, S := range []int{1, 2, 3, 4, 7, 8} {
			dir, rects, byCh, err := Partition(ds.Area, ds.Sites, S)
			if err != nil {
				t.Fatalf("%s S=%d: %v", ds.Name, S, err)
			}
			if len(rects) != S || len(byCh) != S {
				t.Fatalf("%s S=%d: got %d rects, %d channels", ds.Name, S, len(rects), len(byCh))
			}
			var areaSum float64
			total := 0
			for ch, r := range rects {
				if r.Area() <= 0 {
					t.Fatalf("%s S=%d: channel %d has degenerate rect %v", ds.Name, S, ch, r)
				}
				areaSum += r.Area()
				if len(byCh[ch]) == 0 {
					t.Fatalf("%s S=%d: channel %d has no sites", ds.Name, S, ch)
				}
				total += len(byCh[ch])
				// Balance: no shard holds more than 2.5x its fair share.
				if fair := float64(len(ds.Sites)) / float64(S); float64(len(byCh[ch])) > 2.5*fair+1 {
					t.Errorf("%s S=%d: channel %d holds %d of %d sites", ds.Name, S, ch, len(byCh[ch]), len(ds.Sites))
				}
			}
			if total != len(ds.Sites) {
				t.Fatalf("%s S=%d: %d sites assigned of %d", ds.Name, S, total, len(ds.Sites))
			}
			if got, want := areaSum, ds.Area.Area(); got < want*(1-1e-9) || got > want*(1+1e-9) {
				t.Fatalf("%s S=%d: rects cover area %v of %v", ds.Name, S, got, want)
			}
			// Routing lands every point in the rect of the channel it names.
			rng := rand.New(rand.NewSource(int64(S)))
			for i := 0; i < 500; i++ {
				p := randomPoint(rng, ds.Area)
				ch := dir.Route(p)
				if ch < 0 || ch >= S {
					t.Fatalf("%s S=%d: route(%v) = %d", ds.Name, S, p, ch)
				}
				if !rects[ch].Contains(p) {
					t.Fatalf("%s S=%d: route(%v) = %d but rect %v misses it", ds.Name, S, p, ch, rects[ch])
				}
			}
		}
	}
}

func TestDirectoryWireRoundTrip(t *testing.T) {
	ds := dataset.Uniform(300, 3)
	for _, S := range []int{1, 4, 16, 64} {
		dir, _, _, err := Partition(ds.Area, ds.Sites, S)
		if err != nil {
			t.Fatalf("S=%d: %v", S, err)
		}
		for _, capacity := range []int{64, 256, 1024} {
			for self := 0; self < S; self += 1 + S/3 {
				pkts, err := dir.EncodePackets(capacity, self)
				if err != nil {
					t.Fatalf("S=%d cap=%d: %v", S, capacity, err)
				}
				if d, err := DirectoryPacketCount(pkts[0]); err != nil || d != len(pkts) {
					t.Fatalf("S=%d cap=%d: packet count %d/%v, encoded %d", S, capacity, d, err, len(pkts))
				}
				got, err := DecodeDirectory(pkts)
				if err != nil {
					t.Fatalf("S=%d cap=%d: decode: %v", S, capacity, err)
				}
				if got.Self != self || got.S != S || len(got.Nodes) != len(dir.Nodes) {
					t.Fatalf("S=%d cap=%d: round trip header mismatch: %+v", S, capacity, got)
				}
				for i := range dir.Nodes {
					if got.Nodes[i] != dir.Nodes[i] {
						t.Fatalf("S=%d cap=%d: node %d: %+v != %+v", S, capacity, i, got.Nodes[i], dir.Nodes[i])
					}
				}
			}
		}
	}
	// A directory for 64 shards at capacity 64 must span several packets.
	dir, _, _, err := Partition(ds.Area, ds.Sites, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d := dir.PacketCount(64); d < 2 {
		t.Fatalf("64-shard directory fits %d packet(s) at capacity 64; expected a multi-packet prefix", d)
	}

	// Corrupt headers are rejected.
	pkts, err := dir.EncodePackets(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), pkts[0]...)
	bad[0] ^= 0xff
	if _, err := DirectoryPacketCount(bad); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	bad = append([]byte(nil), pkts[0]...)
	bad[2] = 99
	if _, err := DirectoryPacketCount(bad); err == nil {
		t.Fatal("future version accepted")
	}
}

// agrees applies the invariant suite's boundary tolerance: an answer is
// right if it names the expected region or any region that contains the
// query point (points on shared edges belong to every incident region).
func agrees(regions []geom.Polygon, got, want int, p geom.Point) bool {
	if got == want {
		return true
	}
	return got >= 0 && got < len(regions) && regions[got].Contains(p)
}

// TestFabricBitIdenticalToSingleChannel is the tentpole invariant: for
// every query point, the sharded fabric resolves the same global data
// instance as the single-channel D-tree over the same Voronoi diagram.
func TestFabricBitIdenticalToSingleChannel(t *testing.T) {
	for _, ds := range testDatasets(t) {
		sub, err := voronoi.Subdivision(ds.Area, ds.Sites)
		if err != nil {
			t.Fatal(err)
		}
		globalPolys := make([]geom.Polygon, sub.N())
		for i, r := range sub.Regions {
			globalPolys[i] = r.Poly
		}
		for _, capacity := range []int{64, 256} {
			flatTree, err := core.Build(sub)
			if err != nil {
				t.Fatal(err)
			}
			paged, err := flatTree.Page(wire.DTreeParams(capacity))
			if err != nil {
				t.Fatal(err)
			}
			flat := paged.Flatten()
			for _, S := range []int{2, 3, 4} {
				f, err := Build(ds.Area, ds.Sites, S, capacity, Options{})
				if err != nil {
					t.Fatalf("%s S=%d cap=%d: %v", ds.Name, S, capacity, err)
				}
				rng := rand.New(rand.NewSource(int64(31*S + capacity)))
				for i := 0; i < 2000; i++ {
					p := randomPoint(rng, ds.Area)
					want, _ := flat.Locate(p)
					ch := f.Dir.Route(p)
					local, _ := f.Shards[ch].Flat.Locate(p)
					if local < 0 {
						t.Fatalf("%s S=%d cap=%d: %v unresolved in shard %d", ds.Name, S, capacity, p, ch)
					}
					got := f.Shards[ch].IDs[local]
					if !agrees(globalPolys, got, want, p) {
						t.Fatalf("%s S=%d cap=%d: %v -> global %d via shard %d, single channel says %d",
							ds.Name, S, capacity, p, got, ch, want)
					}
				}
			}
		}
	}
}

func TestFabricAccessAccounting(t *testing.T) {
	ds := dataset.Uniform(200, 7)
	sub, err := voronoi.Subdivision(ds.Area, ds.Sites)
	if err != nil {
		t.Fatal(err)
	}
	globalPolys := make([]geom.Polygon, sub.N())
	for i, r := range sub.Regions {
		globalPolys[i] = r.Poly
	}
	const capacity = 128
	f, err := Build(ds.Area, ds.Sites, 4, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	hops := 0
	for i := 0; i < 3000; i++ {
		p := randomPoint(rng, ds.Area)
		entry := rng.Intn(4)
		u := rng.Float64()
		c, _, err := f.AccessInto(p, entry, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.Latency <= 0 {
			t.Fatalf("latency %v", c.Latency)
		}
		if c.TuneDirectory != f.DirPackets {
			t.Fatalf("directory tuning %d, prefix is %d packets", c.TuneDirectory, f.DirPackets)
		}
		wantProbe := 1 + c.Hops
		if c.TuneProbe != wantProbe {
			t.Fatalf("hops=%d but %d probes", c.Hops, c.TuneProbe)
		}
		if c.Shard == entry && c.Hops != 0 {
			t.Fatalf("answered on the entry channel with %d hops", c.Hops)
		}
		if c.Shard != entry && c.Hops != 1 {
			t.Fatalf("answered on %d entering at %d with %d hops", c.Shard, entry, c.Hops)
		}
		if got := c.TotalTuning(); got != c.TuneProbe+c.TuneDirectory+c.TuneIndex+c.TuneData {
			t.Fatalf("tuning sum %d", got)
		}
		if !agrees(globalPolys, c.Global, sub.Locate(p), p) {
			t.Fatalf("%v -> global %d, ground truth %d", p, c.Global, sub.Locate(p))
		}
		hops += c.Hops
	}
	// With 4 shards and random entry channels, about 3/4 of accesses hop.
	if hops < 1500 {
		t.Fatalf("only %d hops in 3000 random-entry accesses", hops)
	}
	// With the caller's trace buffer reused, an access allocates nothing,
	// hop or no hop.
	p := randomPoint(rng, ds.Area)
	var buf []int
	entry := 0
	if allocs := testing.AllocsPerRun(100, func() {
		entry = (entry + 1) % 4
		_, buf, _ = f.AccessInto(p, entry, 0.5, buf)
	}); allocs != 0 {
		t.Fatalf("AccessInto allocates %.1f times per access with a reused trace", allocs)
	}
}

// TestDataStampCarriesGlobalID pins the shard data stamp on the air: every
// bucket a client downloads from a shard's broadcast carries its local
// bucket and packet ids (stream.VerifyStampedData) and, in bytes [8,12),
// the bucket's global data-instance id.
func TestDataStampCarriesGlobalID(t *testing.T) {
	ds := dataset.Uniform(60, 19)
	const capacity = 128
	f, err := Build(ds.Area, ds.Sites, 2, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range f.Shards {
		pr, pw := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			sh.Prog.Transmit(pw, 0, nil) //nolint:errcheck // ends when the reader closes
		}()
		t.Cleanup(func() {
			pr.Close()
			<-done
		})
		c := stream.NewClient(pr, capacity)
		var res stream.Result
		if err := c.Probe(&res); err != nil {
			t.Fatal(err)
		}
		for bucket, id := range sh.IDs {
			data, err := c.FetchBucket(bucket, &res)
			if err != nil {
				t.Fatalf("shard %d bucket %d: %v", sh.Channel, bucket, err)
			}
			if err := stream.VerifyStampedData(data, capacity, bucket); err != nil {
				t.Fatalf("shard %d: %v", sh.Channel, err)
			}
			got, err := GlobalIDFromData(data)
			if err != nil {
				t.Fatal(err)
			}
			if got != id {
				t.Fatalf("shard %d bucket %d stamped global %d, want %d", sh.Channel, bucket, got, id)
			}
		}
	}
	if _, err := GlobalIDFromData(make([]byte, 4)); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	ds := dataset.Uniform(10, 1)
	if _, _, _, err := Partition(ds.Area, ds.Sites, 0); err == nil {
		t.Fatal("S=0 accepted")
	}
	if _, _, _, err := Partition(ds.Area, ds.Sites, 11); err == nil {
		t.Fatal("more shards than sites accepted")
	}
	outside := append(append([]geom.Point(nil), ds.Sites...), geom.Pt(-5, -5))
	if _, _, _, err := Partition(ds.Area, outside, 2); err == nil {
		t.Fatal("site outside the area accepted")
	}
}
