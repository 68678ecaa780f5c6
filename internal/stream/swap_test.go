package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"airindex/internal/channel"
	"airindex/internal/geom"
	"airindex/internal/obs"
	"airindex/internal/testutil"
)

var testArea = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

// LiveSiteIDs returns the ids of the live sites, for tests that compose
// churn batches.
func (sw *Swapper) LiveSiteIDs() []int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ids, _ := sw.maint.LiveSites()
	return ids
}

// startSwapServer wires a Swapper to a live TCP server, applies configure
// (which runs before any connection can exist — Server fields must not be
// mutated once Serve is accepting), starts serving, and returns the channel
// Serve's exit error arrives on.
func startSwapServer(t *testing.T, n, capacity int, seed int64, configure func(*Server)) (*Swapper, *Server, chan error) {
	t.Helper()
	sites := testutil.RandomSites(testArea, n, seed)
	sw, err := NewSwapper(testArea, sites, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ln, sw.Program())
	if err != nil {
		t.Fatal(err)
	}
	sw.Bind(srv)
	if configure != nil {
		configure(srv)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	t.Cleanup(func() { srv.Close() })
	return sw, srv, serveErr
}

// verifyAgainstGeneration checks a query result against the exact program
// its generation stamp names — the live-reconfiguration correctness
// contract: an answer may be from an older generation that was still on
// the air, but never wrong for the generation it claims. It returns an
// error (not t.Fatal) so concurrent client goroutines can report safely.
func verifyAgainstGeneration(sw *Swapper, p geom.Point, res Result, capacity int) error {
	g := sw.Generation(res.Generation)
	if g == nil {
		return fmt.Errorf("query %v: answered under unknown generation %d", p, res.Generation)
	}
	if res.Bucket < 0 || res.Bucket >= g.Sub.N() {
		return fmt.Errorf("query %v: bucket %d out of range for generation %d (%d regions)", p, res.Bucket, res.Generation, g.Sub.N())
	}
	if want := g.Sub.Locate(p); res.Bucket != want && !g.Sub.Regions[res.Bucket].Poly.Contains(p) {
		return fmt.Errorf("query %v: bucket %d, want %d (generation %d)", p, res.Bucket, want, res.Generation)
	}
	if err := VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
		return fmt.Errorf("query %v (generation %d): %w", p, res.Generation, err)
	}
	return nil
}

// TestSwapPublishesNewGeneration: after Apply, a fresh connection resolves
// queries against the new program under the bumped generation.
func TestSwapPublishesNewGeneration(t *testing.T) {
	const capacity = 256
	sw, srv, _ := startSwapServer(t, 60, capacity, 4001, func(s *Server) {
		s.StartSlot = func() int { return 0 }
	})

	gen, ids, err := sw.Apply([]SiteOp{
		{Kind: OpAdd, P: geom.Pt(5012.5, 4987.25)},
		{Kind: OpAdd, P: geom.Pt(123.75, 9876.5)},
		{Kind: OpRemove, ID: 7},
		{Kind: OpMove, ID: 11, P: geom.Pt(7300.125, 2211.875)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("generation after first swap = %d, want 2", gen)
	}
	if len(ids) != 4 {
		t.Fatalf("applied %d ops, want 4", len(ids))
	}
	if srv.Generation() != 2 {
		t.Fatalf("server generation = %d, want 2", srv.Generation())
	}

	client, err := Dial(srv.Addr().String(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, p := range testutil.QueryPoints(testArea, 20, 4002) {
		res, err := client.Query(p)
		if err != nil {
			t.Fatalf("query %v: %v", p, err)
		}
		if res.Generation != 2 {
			t.Fatalf("query %v: resolved under generation %d, want 2", p, res.Generation)
		}
		if err := verifyAgainstGeneration(sw, p, res, capacity); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSwapRejectsCapacityChange: clients size reads from the capacity, so a
// swap may not change it.
func TestSwapRejectsCapacityChange(t *testing.T) {
	_, srv, _ := startSwapServer(t, 30, 256, 4010, nil)
	other, err := NewSwapper(testArea, testutil.RandomSites(testArea, 30, 4011), 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Swap(other.Program()); err == nil {
		t.Fatal("capacity-changing swap accepted")
	}
	if srv.Generation() != 1 {
		t.Fatalf("failed swap bumped generation to %d", srv.Generation())
	}
}

// TestClientEpochRecovery pins the mid-query swap protocol with a
// hand-built stream: generation 1 frames up to a cycle boundary, then
// generation 2 frames of a different program. The client probes late in the
// old cycle, walks into the new generation mid-query, restarts, and answers
// correctly against the new program — with the restart and the wasted work
// visible in the counters.
func TestClientEpochRecovery(t *testing.T) {
	const capacity = 256
	sub1, _ := testutil.RandomVoronoi(t, 40, 4021)
	prog1, err := NewDTreeProgram(sub1, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub2, _ := testutil.RandomVoronoi(t, 55, 4022)
	prog2, err := NewDTreeProgram(sub2, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}

	cycle1 := prog1.Sched.CycleLen()
	swapAt := cycle1 // first cycle boundary: where a live server would roll over
	start := cycle1 - 3

	cliEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx1, err := prog1.transmitter(srvEnd, nil, nil)
		if err != nil {
			return
		}
		tx2, err := prog2.transmitter(srvEnd, nil, nil)
		if err != nil {
			return
		}
		for slot := start; ; slot++ {
			var werr error
			if slot < swapAt {
				_, werr = tx1.transmitRun(slot, slot, 1, 1)
				if werr == nil {
					werr = tx1.flush()
				}
			} else {
				_, werr = tx2.transmitRun(slot, slot-swapAt, 1, 2)
				if werr == nil {
					werr = tx2.flush()
				}
			}
			if werr != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		cliEnd.Close()
		srvEnd.Close()
		<-done
	})

	client := NewClient(cliEnd, capacity)
	p := geom.Pt(6123.5, 3456.25)
	res, err := client.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 {
		t.Fatalf("resolved under generation %d, want 2", res.Generation)
	}
	if res.EpochRestarts != 1 {
		t.Fatalf("EpochRestarts = %d, want 1 (probe at slot %d, swap at %d)", res.EpochRestarts, start, swapAt)
	}
	if res.FirstSlot != start {
		t.Fatalf("FirstSlot = %d, want the original probe slot %d", res.FirstSlot, start)
	}
	if want := float64(res.LastSlot + 1 - res.FirstSlot); res.Latency != want {
		t.Fatalf("latency %v does not span the restart (want %v)", res.Latency, want)
	}
	if want := sub2.Locate(p); res.Bucket != want && !sub2.Regions[res.Bucket].Poly.Contains(p) {
		t.Fatalf("bucket %d, want %d in the new program", res.Bucket, want)
	}
	if err := VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
		t.Fatal(err)
	}
}

// TestChurnUnderLossLive is the acceptance gate of the reconfiguration
// layer: a live TCP server under a lossy channel, a churn driver applying
// 100+ site operations in batches, and concurrent clients querying
// throughout — every answer must verify against the exact generation it was
// resolved under (zero wrong answers), no query may hang, no connection
// goroutine may panic, and the final Shutdown must drain cleanly. The run
// is paced entirely by observability counters — the driver waits for query
// traffic to progress before the next swap, and the main goroutine waits
// on the swap counter — so the test never races a fixed sleep against
// scheduler jitter.
func TestChurnUnderLossLive(t *testing.T) {
	const (
		capacity   = 256
		nSites     = 60
		numClients = 4
		batches    = 25
		batchOps   = 5 // 125 ops total
	)
	stats := &channel.Stats{}
	sw, srv, serveErr := startSwapServer(t, nSites, capacity, 4031, func(s *Server) {
		s.StartSlot = func() int { return 0 }
		s.Channel = channel.Spec{Loss: 0.03, Burst: 3, Corrupt: 0.01, Seed: 4032}.Factory(stats)
	})
	cm := NewClientMetrics() // shared by all query clients

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Churn driver: random add/remove/move batches against the live server,
	// paced by the clients' query counter so every swap lands against live
	// query traffic instead of a wall-clock guess.
	driverErr := make(chan error, 1)
	driverFinished := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(driverFinished)
		rng := rand.New(rand.NewSource(4033))
		applied := 0
		for b := 0; b < batches; b++ {
			ids := sw.LiveSiteIDs()
			var ops []SiteOp
			for len(ops) < batchOps {
				switch k := rng.Intn(10); {
				case k < 4:
					ops = append(ops, SiteOp{Kind: OpAdd, P: geom.Pt(rng.Float64()*10000, rng.Float64()*10000)})
				case k < 7 && len(ids) > nSites/2:
					j := ids[rng.Intn(len(ids))]
					ops = append(ops, SiteOp{Kind: OpRemove, ID: j})
					ids = removeID(ids, j)
				default:
					if len(ids) == 0 {
						continue
					}
					j := ids[rng.Intn(len(ids))]
					ops = append(ops, SiteOp{Kind: OpMove, ID: j, P: geom.Pt(rng.Float64()*10000, rng.Float64()*10000)})
					ids = removeID(ids, j)
				}
			}
			qBase := cm.Queries.Load()
			if _, done, err := sw.Apply(ops); err != nil {
				driverErr <- err
				return
			} else {
				applied += len(done)
			}
			// Obs-driven readiness: at least one query must complete under
			// the new broadcast before the next swap (the timeout is a
			// safety net, not the pacing mechanism).
			obs.AwaitAtLeast(cm.Queries.Load, qBase+1, 5*time.Second)
			select {
			case <-stop:
				return
			default:
			}
		}
		if applied < 100 {
			driverErr <- errors.New("driver applied fewer than 100 operations")
		}
	}()

	// Query clients: hammer the broadcast while the program churns under
	// them. Every result must check out against its own generation.
	clientErrs := make(chan error, numClients)
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := Dial(srv.Addr().String(), capacity)
			if err != nil {
				clientErrs <- err
				return
			}
			defer client.Close()
			client.Metrics = cm
			rng := rand.New(rand.NewSource(4040 + int64(c)))
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
				res, err := client.Query(p)
				if err != nil {
					clientErrs <- err
					return
				}
				if err := verifyAgainstGeneration(sw, p, res, capacity); err != nil {
					clientErrs <- err
					return
				}
			}
		}(c)
	}

	// Let the driver finish all batches, then stop the clients.
	select {
	case <-driverFinished:
	case err := <-clientErrs:
		t.Fatalf("client failed during churn: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("churn run hung")
	}
	select {
	case err := <-driverErr:
		t.Fatalf("driver failed: %v", err)
	default:
	}
	// Every applied batch must be visible as a published swap before the
	// clients stop (the counter increments at publish, so this returns
	// immediately once the driver is done — it is the readiness assertion).
	if !obs.AwaitAtLeast(srv.Metrics().Swaps.Load, batches, 30*time.Second) {
		t.Fatalf("only %d swaps on the air after %d applied batches", srv.Metrics().Swaps.Load(), batches)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-clientErrs:
		t.Fatalf("client failed during churn: %v", err)
	case err := <-driverErr:
		t.Fatalf("driver failed: %v", err)
	default:
	}

	if got := srv.Generation(); got < batches {
		t.Fatalf("server generation %d after %d batches", got, batches)
	}
	if got := srv.Metrics().ConnPanics.Load(); got != 0 {
		t.Fatalf("%d connection panics recovered during churn, want 0", got)
	}
	if got := cm.Queries.Load(); got == 0 {
		t.Fatal("no queries completed during the churn run")
	}

	// Graceful drain must complete: no client is connected anymore, but the
	// server still drains the just-disconnected goroutines and exits Serve
	// with ErrServerClosed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

func removeID(ids []int, id int) []int {
	out := ids[:0]
	for _, j := range ids {
		if j != id {
			out = append(out, j)
		}
	}
	return out
}
