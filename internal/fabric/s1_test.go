package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

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
		fc.Adjacency = adjacency
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
