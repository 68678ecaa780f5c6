package ingest

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/obs"
	"airindex/internal/stream"
	"airindex/internal/testutil"
)

var testArea = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

// fakeSink models the swapper contract in memory: adds allocate ids,
// batches record, and the failure knobs (failCuts, rejectID, panicOnce)
// drive the degradation ladder without a real Voronoi build.
type fakeSink struct {
	mu      sync.Mutex
	nextID  int
	live    map[int]geom.Point
	batches [][]stream.SiteOp

	failCuts  int   // fail this many cuts with pending=true before succeeding
	rejectID  int   // refuse ops addressing this site id (0 = off)
	panicOnce bool  // panic on the next non-empty batch
	pending   bool  // mirrors the swapper's Pending contract
	applies   int64 // total ApplyBatch calls (including empty republishes)
}

func newFakeSink() *fakeSink { return &fakeSink{nextID: 1, live: map[int]geom.Point{}} }

func (f *fakeSink) ApplyBatch(ops []stream.SiteOp) ([]int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applies++
	if f.panicOnce && len(ops) > 0 {
		f.panicOnce = false
		panic("fake sink panic")
	}
	ids := make([]int, 0, len(ops))
	for _, op := range ops {
		if f.rejectID != 0 && op.ID == f.rejectID {
			return ids, errors.New("fake sink: refused op")
		}
		switch op.Kind {
		case stream.OpAdd:
			id := f.nextID
			f.nextID++
			f.live[id] = op.P
			ids = append(ids, id)
		case stream.OpMove:
			if _, ok := f.live[op.ID]; !ok {
				return ids, errors.New("fake sink: move of dead site")
			}
			f.live[op.ID] = op.P
			ids = append(ids, op.ID)
		case stream.OpRemove:
			if _, ok := f.live[op.ID]; !ok {
				return ids, errors.New("fake sink: remove of dead site")
			}
			delete(f.live, op.ID)
			ids = append(ids, op.ID)
		}
	}
	if f.failCuts > 0 {
		f.failCuts--
		f.pending = true
		return ids, errors.New("fake sink: cut failed after mutating")
	}
	f.pending = false
	if len(ops) > 0 {
		cp := make([]stream.SiteOp, len(ops))
		copy(cp, ops)
		f.batches = append(f.batches, cp)
	}
	return ids, nil
}

func (f *fakeSink) Pending() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pending
}

func (f *fakeSink) batchCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.batches)
}

func fastConfig() Config {
	return Config{
		QueueCap:     256,
		CutMaxOps:    16,
		CutInterval:  10 * time.Millisecond,
		RetryBackoff: time.Millisecond,
	}
}

func awaitCuts(t *testing.T, p *Pipeline, n int64) {
	t.Helper()
	if !obs.AwaitAtLeast(p.m.Cuts.Load, n, 5*time.Second) {
		t.Fatalf("pipeline did not reach %d cuts (have %d)", n, p.m.Cuts.Load())
	}
}

func TestPipelineCutsAndCoalesces(t *testing.T) {
	sink := newFakeSink()
	p := Start(sink, fastConfig())
	defer p.Close(nil)

	// 8 moves of the same site fold into at most a couple of applied ops.
	if err := p.Enqueue(Op{Kind: OpAdd, ID: -1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	awaitCuts(t, p, 1)
	for i := 0; i < 8; i++ {
		if err := p.Enqueue(Op{Kind: OpMove, ID: -1, X: float64(100 + i), Y: 50}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(nil); err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.live) != 1 {
		t.Fatalf("live sites = %d, want 1", len(sink.live))
	}
	if got := sink.live[1]; got != geom.Pt(107, 50) {
		t.Fatalf("final position = %v, want the newest move (107,50)", got)
	}
	in, out := p.m.CoalescedIn.Load(), p.m.CoalescedOut.Load()
	if in != 9 {
		t.Fatalf("CoalescedIn = %d, want 9", in)
	}
	if out >= in {
		t.Fatalf("CoalescedOut = %d, want < %d (moves must fold)", out, in)
	}
	if lat := p.m.OpLatencyNS.Snapshot().Count; lat != out {
		t.Fatalf("latency observations = %d, want one per applied op (%d)", lat, out)
	}
}

func TestPipelineProvisionalHandleLifecycle(t *testing.T) {
	sink := newFakeSink()
	p := Start(sink, fastConfig())
	defer p.Close(nil)

	// Window 1: tagged add. Window 2: move via the handle. Window 3: remove.
	if err := p.Enqueue(Op{Kind: OpAdd, ID: -7, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	awaitCuts(t, p, 1)
	if err := p.Enqueue(Op{Kind: OpMove, ID: -7, X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	awaitCuts(t, p, 2)
	if err := p.Enqueue(Op{Kind: OpRemove, ID: -7}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(nil); err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	if len(sink.live) != 0 {
		t.Fatalf("live sites = %d, want 0 after remove-by-handle", len(sink.live))
	}
	// The moves/removes must have addressed the real id the add got.
	for _, b := range sink.batches[1:] {
		for _, op := range b {
			if op.ID != 1 {
				t.Fatalf("op addressed id %d, want the resolved real id 1", op.ID)
			}
		}
	}
	sink.mu.Unlock()
	// The handle is retired after the remove.
	if len(p.prov) != 0 {
		t.Fatalf("provisional map still holds %d handles after remove", len(p.prov))
	}
	// An op on the retired handle is invalid, not fatal.
	p2 := Start(newFakeSink(), fastConfig())
	defer p2.Close(nil)
	if err := p2.Enqueue(Op{Kind: OpMove, ID: -99, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got := p2.m.InvalidOps.Load(); got != 1 {
		t.Fatalf("InvalidOps = %d, want 1 for a dangling handle", got)
	}
}

func TestPipelineRetriesFailedCut(t *testing.T) {
	sink := newFakeSink()
	sink.failCuts = 2 // the cut and the first republish fail; second lands
	p := Start(sink, fastConfig())
	defer p.Close(nil)

	if err := p.Enqueue(Op{Kind: OpAdd, X: 3, Y: 3}); err != nil {
		t.Fatal(err)
	}
	awaitCuts(t, p, 1)
	if err := p.Close(nil); err != nil {
		t.Fatal(err)
	}

	if got := p.m.Retries.Load(); got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.live) != 1 {
		t.Fatalf("live sites = %d, want 1 (retries must not re-apply the add)", len(sink.live))
	}
}

func TestPipelineDropsRejectedOpAndContinues(t *testing.T) {
	sink := newFakeSink()
	p := Start(sink, fastConfig())
	defer p.Close(nil)

	// Site 1 exists; a move of dead site 55 lands between two valid ops.
	if err := p.Enqueue(Op{Kind: OpAdd, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	awaitCuts(t, p, 1)
	if err := p.Enqueue(
		Op{Kind: OpMove, ID: 1, X: 5, Y: 5},
		Op{Kind: OpMove, ID: 55, X: 6, Y: 6},
		Op{Kind: OpMove, ID: 1, X: 7, Y: 7},
	); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(nil); err != nil {
		t.Fatal(err)
	}

	if got := p.m.RejectedOps.Load(); got != 1 {
		t.Fatalf("RejectedOps = %d, want 1", got)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if got := sink.live[1]; got != geom.Pt(7, 7) {
		t.Fatalf("site 1 at %v, want (7,7): the suffix after the rejected op must still apply", got)
	}
}

func TestPipelinePanicQuarantinesButSurvives(t *testing.T) {
	sink := newFakeSink()
	sink.panicOnce = true
	p := Start(sink, fastConfig())

	if err := p.Enqueue(Op{Kind: OpAdd, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if !obs.AwaitAtLeast(p.m.QuarantinedBatches.Load, 1, 5*time.Second) {
		t.Fatalf("panicking cut was not quarantined")
	}
	// The pipeline still accepts and drains (into quarantine), and Close
	// returns instead of hanging on a dead worker.
	if err := p.Enqueue(Op{Kind: OpAdd, X: 2, Y: 2}); err != nil {
		t.Fatalf("enqueue after quarantine = %v, want accepted", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("Close after panic = %v", err)
	}
	if got := p.m.QuarantinedBatches.Load(); got < 2 {
		t.Fatalf("QuarantinedBatches = %d, want >= 2 (post-panic batches quarantine too)", got)
	}
	if got := p.m.Cuts.Load(); got != 0 {
		t.Fatalf("Cuts = %d, want 0 after quarantine", got)
	}
}

func TestPipelineCloseDrainsQueue(t *testing.T) {
	sink := newFakeSink()
	cfg := fastConfig()
	cfg.CutMaxOps = 4
	p := Start(sink, cfg)

	for i := 0; i < 20; i++ {
		if err := p.Enqueue(Op{Kind: OpAdd, X: float64(i), Y: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(Op{Kind: OpAdd, X: 1, Y: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after Close = %v, want ErrClosed", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.live) != 20 {
		t.Fatalf("live sites = %d, want all 20 drained through final cuts", len(sink.live))
	}
}

// TestPipelineSwapperEquivalence is the end-to-end final-state property:
// a random op stream pushed through the full pipeline (queue, coalescer,
// provisional handles, real stream.Swapper) must leave the air serving
// exactly the site set that op-by-op application to a second swapper
// produces — and the program must be byte-comparable via nearest-site
// answers at random query points.
func TestPipelineSwapperEquivalence(t *testing.T) {
	const capacity = 256
	seedSites := testutil.RandomSites(testArea, 30, 6001)

	sw, err := fabric.NewSwapper(testArea, seedSites, 1, capacity, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := stream.NewSwapper(testArea, seedSites, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg := fastConfig()
	cfg.CutMaxOps = 8
	p := Start(FabricSink(sw), cfg)

	rng := rand.New(rand.NewSource(6002))
	nextHandle := int64(-1)
	liveHandles := []int64{}
	liveReal := append([]int{}, sw.LiveSiteIDs()...)
	handleReal := map[int64]int{} // oracle's view: handle -> oracle site id

	for i := 0; i < 120; i++ {
		x := testArea.MinX + rng.Float64()*(testArea.MaxX-testArea.MinX)
		y := testArea.MinY + rng.Float64()*(testArea.MaxY-testArea.MinY)
		switch k := rng.Intn(10); {
		case k < 3: // tagged add
			h := nextHandle
			nextHandle--
			liveHandles = append(liveHandles, h)
			if err := p.Enqueue(Op{Kind: OpAdd, ID: h, X: x, Y: y}); err != nil {
				t.Fatal(err)
			}
			_, ids, err := oracle.Apply([]stream.SiteOp{{Kind: stream.OpAdd, P: geom.Pt(x, y)}})
			if err != nil {
				t.Fatal(err)
			}
			handleReal[h] = ids[0]
		case k < 7: // move a live site (by real id or handle)
			if len(liveReal) > 0 && (len(liveHandles) == 0 || rng.Intn(2) == 0) {
				id := liveReal[rng.Intn(len(liveReal))]
				if err := p.Enqueue(Op{Kind: OpMove, ID: int64(id), X: x, Y: y}); err != nil {
					t.Fatal(err)
				}
				if _, _, err := oracle.Apply([]stream.SiteOp{{Kind: stream.OpMove, ID: id, P: geom.Pt(x, y)}}); err != nil {
					t.Fatal(err)
				}
			} else if len(liveHandles) > 0 {
				h := liveHandles[rng.Intn(len(liveHandles))]
				if err := p.Enqueue(Op{Kind: OpMove, ID: h, X: x, Y: y}); err != nil {
					t.Fatal(err)
				}
				if _, _, err := oracle.Apply([]stream.SiteOp{{Kind: stream.OpMove, ID: handleReal[h], P: geom.Pt(x, y)}}); err != nil {
					t.Fatal(err)
				}
			}
		default: // remove a live site
			if len(liveHandles) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(liveHandles))
				h := liveHandles[j]
				liveHandles = append(liveHandles[:j], liveHandles[j+1:]...)
				if err := p.Enqueue(Op{Kind: OpRemove, ID: h}); err != nil {
					t.Fatal(err)
				}
				if _, _, err := oracle.Apply([]stream.SiteOp{{Kind: stream.OpRemove, ID: handleReal[h]}}); err != nil {
					t.Fatal(err)
				}
			} else if len(liveReal) > 0 {
				j := rng.Intn(len(liveReal))
				id := liveReal[j]
				liveReal = append(liveReal[:j], liveReal[j+1:]...)
				if err := p.Enqueue(Op{Kind: OpRemove, ID: int64(id)}); err != nil {
					t.Fatal(err)
				}
				if _, _, err := oracle.Apply([]stream.SiteOp{{Kind: stream.OpRemove, ID: id}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := p.Close(nil); err != nil {
		t.Fatal(err)
	}

	want := len(liveReal) + len(liveHandles)
	if sw.Len() != want || oracle.Len() != want {
		t.Fatalf("live sites: pipeline %d, oracle %d, generator expects %d",
			sw.Len(), oracle.Len(), want)
	}
	// Identical site sets produce identical Voronoi diagrams: at every
	// query point both swappers must answer with the same cell geometry.
	// (Site ids can differ — coalescing legally elides add+remove pairs the
	// oracle executes — so the comparison is geometric, not id-based.)
	g1, g2 := sw.Current(0).Shard, oracle.Current()
	for _, q := range testutil.QueryPoints(testArea, 300, 6003) {
		r1, _ := g1.Flat.Locate(q)
		r2, _ := g2.Flat.Locate(q)
		if !samePolygon(g1.Sub.Regions[r1].Poly, g2.Sub.Regions[r2].Poly) {
			t.Fatalf("cell geometry diverged at query %v (pipeline region %d, oracle region %d)", q, r1, r2)
		}
	}
	if p.m.Cuts.Load() == 0 {
		t.Fatal("no cuts landed")
	}
	if p.m.InvalidOps.Load() != 0 || p.m.RejectedOps.Load() != 0 {
		t.Fatalf("valid stream produced %d invalid and %d rejected ops",
			p.m.InvalidOps.Load(), p.m.RejectedOps.Load())
	}
}

// samePolygon compares two cells as vertex multisets; both sides derive
// from identical floating-point arithmetic on the same final site set, so
// exact equality is the invariant (the repo pins incremental == rebuild
// byte-for-byte).
func samePolygon(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[geom.Point]int{}
	for _, v := range a {
		count[v]++
	}
	for _, v := range b {
		count[v]--
		if count[v] < 0 {
			return false
		}
	}
	return true
}
