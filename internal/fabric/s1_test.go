package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/stream"
	"airindex/internal/testutil"
	"airindex/internal/voronoi"
)

// singleRef is a single-channel cut pipeline a one-shard fabric must
// reproduce: Apply has stream.Swapper's semantics, and program returns the
// generation on the air.
type singleRef struct {
	apply   func(ops []stream.SiteOp) (uint32, []int, error)
	program func() *stream.Program
}

// plainRef is the single channel without adjacency: stream.Swapper.
func plainRef(area geom.Rect, sites []geom.Point, capacity int) (singleRef, error) {
	sw, err := stream.NewSwapper(area, sites, capacity, 0)
	if err != nil {
		return singleRef{}, err
	}
	return singleRef{apply: sw.Apply, program: sw.Program}, nil
}

// adjacencyRef is the single channel with adjacency: one voronoi.Maintainer
// feeding one stream.Compiler whose channel resolves sites through it.
func adjacencyRef(area geom.Rect, sites []geom.Point, capacity int) (singleRef, error) {
	maint, err := voronoi.NewMaintainer(area, sites)
	if err != nil {
		return singleRef{}, err
	}
	comp := stream.NewCompiler(stream.Channel{Area: maint.Area(), Capacity: capacity, SiteOf: maint.Site})
	gen := uint32(0)
	var prog *stream.Program
	cut := func(dirty, removed []int) error {
		ids, polys := maint.LiveCells()
		c, err := comp.Compile(ids, polys, dirty, removed)
		if err != nil {
			return err
		}
		gen, prog = gen+1, c.Prog
		return nil
	}
	if err := cut(nil, nil); err != nil {
		return singleRef{}, err
	}
	apply := func(ops []stream.SiteOp) (uint32, []int, error) {
		ids, opErr := stream.ApplyOps(maint, ops)
		if len(ids) == 0 && opErr != nil {
			return gen, nil, opErr
		}
		if dirty, removed := maint.BatchDelta(); len(dirty)+len(removed) > 0 {
			if err := cut(dirty, removed); err != nil {
				return gen, ids, err
			}
		}
		return gen, ids, opErr
	}
	return singleRef{apply: apply, program: func() *stream.Program { return prog }}, nil
}

// requireSameProgram fails unless got broadcasts want's bytes: the same
// index packets, the same schedule, and no global ids in the data packets.
func requireSameProgram(t *testing.T, label string, got, want *stream.Program) {
	t.Helper()
	if got.IDs != nil {
		t.Fatalf("%s: one-shard program stamps global ids", label)
	}
	if got.Capacity != want.Capacity || len(got.IndexPackets) != len(want.IndexPackets) {
		t.Fatalf("%s: %d index packets at %d B, single channel has %d at %d B",
			label, len(got.IndexPackets), got.Capacity, len(want.IndexPackets), want.Capacity)
	}
	for k := range got.IndexPackets {
		if !bytes.Equal(got.IndexPackets[k], want.IndexPackets[k]) {
			t.Fatalf("%s: index packet %d differs from the single channel's", label, k)
		}
	}
	if !reflect.DeepEqual(got.Sched, want.Sched) {
		t.Fatalf("%s: schedule %+v, single channel %+v", label, got.Sched, want.Sched)
	}
}

// s1Input is one site set of the identity suite, with the point source its
// churn batches draw from.
type s1Input struct {
	ds    dataset.Dataset
	point func(rng *rand.Rand) geom.Point
}

func s1Inputs() []s1Input {
	uniform := func(area geom.Rect) func(*rand.Rand) geom.Point {
		return func(rng *rand.Rand) geom.Point { return randomPoint(rng, area) }
	}
	var in []s1Input
	for _, ds := range []dataset.Dataset{
		dataset.Uniform(40, 2901), dataset.Uniform(300, 2902), dataset.Uniform(2000, 2903),
		dataset.Hospital(), dataset.Park(),
	} {
		in = append(in, s1Input{ds, uniform(ds.Area)})
	}
	// Degenerate sites churn on their own lattice or diagonal, so batches
	// keep landing on co-circular and collinear positions — and on live
	// sites, which the maintainer refuses.
	for seed := int64(0); seed < 20; seed++ {
		ds := dataset.Dataset{Name: fmt.Sprintf("degenerate-%d", seed), Area: testutil.BigArea, Sites: testutil.DegenerateSites(60, seed)}
		step := 1000.0
		if seed%2 == 1 {
			step = 100
		}
		in = append(in, s1Input{ds, func(rng *rand.Rand) geom.Point {
			if seed%2 == 0 {
				return geom.Pt(step*float64(rng.Intn(11)), step*float64(rng.Intn(11)))
			}
			k := step * float64(rng.Intn(100))
			return geom.Pt(k, k)
		}})
	}
	return in
}

// TestFabricS1IsSingleChannel pins the one-shard fabric as the single
// channel, byte for byte: no directory prefix, no global ids, the same
// schedule. fabric.Build matches the single-channel compile of the same
// sites, and NewSwapper matches the single-channel cut pipeline — plain
// and with adjacency — through churn batches of moves, adds and removes,
// with the same generation numbers, site ids and refusals.
func TestFabricS1IsSingleChannel(t *testing.T) {
	const cuts = 10
	for ii, in := range s1Inputs() {
		t.Run(in.ds.Name, func(t *testing.T) {
			t.Parallel()
			requireS1IsSingleChannel(t, in, int64(100*ii), cuts)
		})
	}
}

// requireS1IsSingleChannel runs the identity suite on one input.
func requireS1IsSingleChannel(t *testing.T, in s1Input, seed int64, cuts int) {
	ds := in.ds
	sub, err := ds.Subdivision()
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{64, 128, 256} {
		f, err := Build(ds.Area, ds.Sites, 1, capacity, Options{})
		if err != nil {
			t.Fatalf("cap=%d: build: %v", capacity, err)
		}
		want, err := stream.NewDTreeProgram(sub, capacity, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.DirPackets != 0 {
			t.Fatalf("cap=%d: one-shard fabric has %d directory packets", capacity, f.DirPackets)
		}
		requireSameProgram(t, fmt.Sprintf("cap=%d build", capacity), f.Shards[0].Prog, want)
		for b, id := range f.Shards[0].IDs {
			if id != b {
				t.Fatalf("cap=%d: bucket %d maps to site %d", capacity, b, id)
			}
		}

		for _, adjacency := range []bool{false, true} {
			label := fmt.Sprintf("cap=%d adjacency=%v", capacity, adjacency)
			newRef := plainRef
			if adjacency {
				newRef = adjacencyRef
			}
			ref, err := newRef(ds.Area, ds.Sites, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if adjacency {
				fa, err := Build(ds.Area, ds.Sites, 1, capacity, Options{Adjacency: true})
				if err != nil {
					t.Fatalf("%s: build: %v", label, err)
				}
				requireSameProgram(t, label+" build", fa.Shards[0].Prog, ref.program())
			}
			sw, err := NewSwapper(ds.Area, ds.Sites, 1, capacity, Options{Adjacency: adjacency})
			if err != nil {
				t.Fatalf("%s: swapper: %v", label, err)
			}
			if sw.DirPackets() != 0 {
				t.Fatalf("%s: swapper has %d directory packets", label, sw.DirPackets())
			}
			requireSameProgram(t, label+" bootstrap", sw.Current(0).Shard.Prog, ref.program())
			rng := rand.New(rand.NewSource(seed + int64(capacity)))
			for c := 0; c < cuts; c++ {
				ops := siteBatch(rng, sw, 1+rng.Intn(4), func() geom.Point { return in.point(rng) })
				if rng.Intn(5) == 0 {
					ops = append(ops, stream.SiteOp{Kind: stream.OpRemove, ID: -1})
				}
				gens, ids, err := sw.Apply(ops)
				wantGen, wantIDs, wantErr := ref.apply(ops)
				cl := fmt.Sprintf("%s cut %d", label, c)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: fabric error %v, single channel %v", cl, err, wantErr)
				}
				if gens[0] != wantGen || !reflect.DeepEqual(ids, wantIDs) {
					t.Fatalf("%s: generation %d ids %v, single channel %d ids %v", cl, gens[0], ids, wantGen, wantIDs)
				}
				requireSameProgram(t, cl, sw.Current(0).Shard.Prog, ref.program())
			}
		}
	}
}

// TestClientLoneChannelIsSingleChannel pins the fabric client's
// directory-less case: on a one-shard fabric, plain and with the
// adjacency appendix, QueryFrom runs the single channel's own access
// protocol — the same answer, latency, tuning and dozing as a stream
// client on an identical broadcast, with no directory read and no hop.
func TestClientLoneChannelIsSingleChannel(t *testing.T) {
	ds := dataset.Uniform(120, 81)
	const capacity = 128
	for _, adjacency := range []bool{false, true} {
		f, err := Build(ds.Area, ds.Sites, 1, capacity, Options{Adjacency: adjacency})
		if err != nil {
			t.Fatal(err)
		}
		fc := pipeAir(t, f.Programs(), capacity)
		ref := pipeAir(t, f.Programs(), capacity)
		sc, err := ref.client(0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(82))
		for i := 0; i < 16; i++ {
			p := randomPoint(rng, ds.Area)
			got, err := fc.QueryFrom(p, 0)
			if err != nil {
				t.Fatalf("adjacency %v query %d: %v", adjacency, i, err)
			}
			want, err := singleChannelQuery(sc, p, adjacency)
			if err != nil {
				t.Fatalf("adjacency %v query %d (reference): %v", adjacency, i, err)
			}
			if got.Bucket != want.Bucket || got.Global != want.Bucket || got.Shard != 0 || got.Hops != 0 ||
				got.Latency != want.Latency || got.TuneDirectory != 0 || got.TuneIndex != want.TuneIndex ||
				got.TotalTuning() != want.TotalTuning() || got.DozedFrames != want.DozedFrames ||
				!bytes.Equal(got.Data, want.Data) {
				t.Fatalf("adjacency %v query %d at %v: fabric %+v, single channel %+v", adjacency, i, p, got, want)
			}
			if w := f.Shards[0].Sub.Locate(p); got.Bucket != w && !f.Shards[0].Sub.Regions[got.Bucket].Poly.Contains(p) {
				t.Fatalf("adjacency %v query %d at %v: bucket %d, ground truth %d", adjacency, i, p, got.Bucket, w)
			}
		}
	}
}

// TestStreamClientStepsOverAppendix: a plain stream.Client queried on a
// one-shard broadcast that carries the adjacency appendix steps over it on
// its own, with no side information — the same bucket, data, latency,
// tuning and dozing (the whole Result) as the hand-driven reference that
// reads the appendix head and skips the length it names.
func TestStreamClientStepsOverAppendix(t *testing.T) {
	type input struct {
		ds      dataset.Dataset
		queries []geom.Point
	}
	uni := dataset.Uniform(300, 3001)
	rng := rand.New(rand.NewSource(3002))
	in := []input{{uni, nil}}
	for i := 0; i < 24; i++ {
		in[0].queries = append(in[0].queries, randomPoint(rng, uni.Area))
	}
	for seed := int64(0); seed < 2; seed++ {
		ds := dataset.Dataset{Name: fmt.Sprintf("degenerate-%d", seed), Area: testutil.BigArea, Sites: testutil.DegenerateSites(80, seed)}
		in = append(in, input{ds, testutil.DegenerateQueries(24, seed+3003)})
	}
	for _, c := range in {
		for _, capacity := range []int{64, 128, 512} {
			label := fmt.Sprintf("%s at %d B", c.ds.Name, capacity)
			f, err := Build(c.ds.Area, c.ds.Sites, 1, capacity, Options{Adjacency: true})
			if err != nil {
				t.Fatalf("%s: build: %v", label, err)
			}
			sc, err := pipeAir(t, f.Programs(), capacity).client(0)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := pipeAir(t, f.Programs(), capacity).client(0)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range c.queries {
				got, err := sc.Query(p)
				if err != nil {
					t.Fatalf("%s query %d at %v: %v", label, i, p, err)
				}
				want, err := singleChannelQuery(rc, p, true)
				if err != nil {
					t.Fatalf("%s query %d at %v (reference): %v", label, i, p, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s query %d at %v: plain client %+v, hand-driven %+v", label, i, p, got, want)
				}
				// The arena descends at wire precision, so it answers every
				// point alike, area-edge and lattice ties included.
				if w, _ := f.Shards[0].Flat.LocateInto(p, nil); got.Bucket != w {
					t.Fatalf("%s query %d at %v: bucket %d, arena %d", label, i, p, got.Bucket, w)
				}
			}
		}
	}
}

// TestQueryShiftedOnAdjacencyShard: on one channel of a four-shard fabric
// with the appendix, QueryShifted past the directory resolves the points
// that shard owns exactly as the hopping fabric client does.
func TestQueryShiftedOnAdjacencyShard(t *testing.T) {
	ds := dataset.Uniform(400, 3101)
	const capacity = 128
	f, err := Build(ds.Area, ds.Sites, 4, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	fc := pipeAir(t, f.Programs(), capacity)
	direct := pipeAir(t, f.Programs(), capacity)
	rng := rand.New(rand.NewSource(3102))
	owned := make([]int, 4)
	for i := 0; i < 48; i++ {
		p := randomPoint(rng, ds.Area)
		want, err := fc.QueryFrom(p, rng.Intn(4))
		if err != nil {
			t.Fatalf("query %d at %v: %v", i, p, err)
		}
		sc, err := direct.client(want.Shard)
		if err != nil {
			t.Fatal(err)
		}
		var got stream.Result
		if err := sc.QueryShifted(p, f.DirPackets, &got); err != nil {
			t.Fatalf("query %d at %v on shard %d: %v", i, p, want.Shard, err)
		}
		if got.Bucket != want.Bucket || !bytes.Equal(got.Data, want.Data) || got.Generation != want.Generation {
			t.Fatalf("query %d at %v on shard %d: QueryShifted bucket %d, QueryFrom bucket %d",
				i, p, want.Shard, got.Bucket, want.Bucket)
		}
		owned[want.Shard]++
	}
	for s, n := range owned {
		if n == 0 {
			t.Errorf("no query landed on shard %d", s)
		}
	}
}

// TestDamagedAppendixHeadFails: a query over a damaged appendix head ends
// in a bounded error, never a hang or an answer. A head naming more packets
// than the index copy holds sends the descent past the copy's end, into the
// "unreachable" error; a head that carries the magic but does not parse is
// refused, not decoded as the root.
func TestDamagedAppendixHeadFails(t *testing.T) {
	ds := dataset.Uniform(60, 3201)
	const capacity = 128
	f, err := Build(ds.Area, ds.Sites, 1, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := f.Shards[0].Prog
	for _, c := range []struct {
		name   string
		damage func(head []byte)
		want   string
	}{
		{"length past the copy", func(head []byte) {
			binary.LittleEndian.PutUint16(head[3:], uint16(len(prog.IndexPackets)+3)) // the appendix length field
		}, "unreachable"},
		{"unknown version", func(head []byte) { head[2] = 99 }, "adjacency version"},
	} {
		pkts := append([][]byte(nil), prog.IndexPackets...)
		pkts[0] = append([]byte(nil), pkts[0]...)
		c.damage(pkts[0])
		bad := &stream.Program{Capacity: prog.Capacity, IndexPackets: pkts, Sched: prog.Sched}
		sc, err := pipeAir(t, []*stream.Program{bad}, capacity).client(0)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := sc.Query(randomPoint(rand.New(rand.NewSource(3202)), ds.Area))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: query ended with %v, want an error containing %q", c.name, err, c.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: query did not end", c.name)
		}
	}
}

// singleChannelQuery is one point query by a plain stream client; with the
// appendix on the air it skips the length packet 0 names.
func singleChannelQuery(c *stream.Client, p geom.Point, adjacency bool) (stream.Result, error) {
	if !adjacency {
		return c.Query(p)
	}
	var res stream.Result
	if err := c.Probe(&res); err != nil {
		return res, err
	}
	head, err := c.FetchIndexPackets(&res, 0, 1)
	if err != nil {
		return res, err
	}
	skip, err := core.AdjacencyPacketCount(head[0])
	if err != nil {
		return res, err
	}
	return res, c.QueryResume(p, skip, &res)
}
