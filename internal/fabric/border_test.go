package fabric

import (
	"io"
	"math/rand"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/stream"
)

// pipeAir tunes one in-memory receiver per channel: each program transmits
// into its own io.Pipe from slot 0, so a session reads deterministic bytes
// with no sockets and no clock.
func pipeAir(t *testing.T, progs []*stream.Program, capacity int) *Client {
	t.Helper()
	clients := make([]*stream.Client, len(progs))
	for ch, prog := range progs {
		pr, pw := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			prog.Transmit(pw, 0, nil) //nolint:errcheck // ends when the reader closes
		}()
		t.Cleanup(func() {
			pr.Close()
			<-done
		})
		clients[ch] = stream.NewClient(pr, capacity)
	}
	return NewClientFunc(len(progs), capacity, func(ch int) (*stream.Client, error) { return clients[ch], nil })
}

// churnBatch draws one batch of the mixed churn the live benchmark's
// producer offers — 8 in 10 moves to a uniform point, 1 add, 1 remove —
// against the live id list, which it keeps current for removes.
func churnBatch(rng *rand.Rand, live *[]int, n int, area geom.Rect) []stream.SiteOp {
	ops := make([]stream.SiteOp, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 1:
			ops = append(ops, stream.SiteOp{Kind: stream.OpAdd, P: randomPoint(rng, area)})
		case k < 2:
			j := rng.Intn(len(*live))
			ops = append(ops, stream.SiteOp{Kind: stream.OpRemove, ID: (*live)[j]})
			(*live)[j] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
		default:
			ops = append(ops, stream.SiteOp{Kind: stream.OpMove, ID: (*live)[rng.Intn(len(*live))], P: randomPoint(rng, area)})
		}
	}
	return ops
}

// TestFabricContinuousKNNAtShardBorder pins a kNN miss next to a shard
// split, of the kind the live sharded benchmark reported in about one run
// in fifty. A channel the client's position is not in is seeded at the region
// containing clamp(p, rect), a point on the shard rectangle's border, and
// the D-tree descent is not exact there: it can land a few cells away from
// the point. A window walk flooding from such a seed may never reach the
// cells that meet the candidate square, so a true neighbor held by that
// channel went missing. After two seeded churn cuts of a 300-site,
// two-shard fabric, the step at the captured point returned
// [121 223 124 251] where the pinned oracle has [121 223 124 219]. The
// session now settles every located seed on the region that contains the
// clamped point.
func TestFabricContinuousKNNAtShardBorder(t *testing.T) {
	const capacity = 128
	ds := dataset.LargeUniform(300)
	sw, err := NewSwapper(ds.Area, ds.Sites, 2, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	live := make([]int, len(ds.Sites))
	for i := range live {
		live[i] = i
	}
	rng := rand.New(rand.NewSource(7))
	for cut := 0; cut < 2; cut++ {
		ops := churnBatch(rng, &live, 25, ds.Area)
		_, ids, err := sw.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.Kind == stream.OpAdd {
				live = append(live, ids[i])
			}
		}
	}

	q := stream.ContinuousQuery{K: 4}
	check := func(sess *Continuous, p geom.Point) {
		t.Helper()
		out, err := sess.Step(p)
		if err != nil {
			t.Fatalf("step at %v: %v", p, err)
		}
		// Program.Transmit stamps generation 1 on the air; the content is
		// each channel's current generation.
		gens := make(map[int]uint32, len(out.Gens))
		for ch := range out.Gens {
			gens[ch] = sw.Current(ch).Gen
		}
		want := refKNN(pinnedStates(t, sw, gens), sw.rects, out.Home, p, q.K)
		if !equalI32(out.KNN, want) {
			t.Fatalf("step at %v (home %d): knn %v, pinned oracle %v", p, out.Home, out.KNN, want)
		}
	}

	// The captured case, as a fresh session's first step.
	captured := geom.Pt(5430.902403849553, 7981.34041505662)
	check(NewContinuous(pipeAir(t, sw.Programs(), capacity), stream.ModeIncremental, q), captured)

	// A moving session zig-zagging across the split: every step seeds the
	// far channel on the border, and cached seeds are revalidated there.
	sess := NewContinuous(pipeAir(t, sw.Programs(), capacity), stream.ModeIncremental, q)
	split := sw.rects[0].MaxX
	for step := 0; step < 60; step++ {
		dx := 40.0
		if step%2 == 1 {
			dx = -40
		}
		check(sess, geom.Pt(split+dx, 500+float64(step)*150))
	}
}
