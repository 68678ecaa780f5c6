package fabric

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"airindex/internal/channel"
	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/rstar"
	"airindex/internal/stream"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

// Single-channel continuous-query oracle suite: the session runs over a
// one-channel fabric client tuned to a plain stream broadcast, which
// carries no directory. Every cycle of a moving client's standing
// window/kNN query, answered on air from the D-tree adjacency appendix, is
// scored against two independent oracles for the exact generation it was
// answered under: a brute-force scan of the generation's subdivision, and an
// R*-tree built over the same ground truth. The three must agree bit for
// bit — under churn, loss, and both client modes.

// oracleWindow is the brute-force window oracle: every region whose polygon
// meets w, ascending.
func oracleWindow(sub *region.Subdivision, w geom.Rect) []int32 {
	var out []int32
	for i := range sub.Regions {
		if core.RegionIntersectsRect(sub.Regions[i].Poly, w) {
			out = append(out, int32(i))
		}
	}
	return out
}

// oracleWindowRStar answers the same window through an R*-tree over region
// MBRs with an exact polygon filter.
func oracleWindowRStar(t *testing.T, sub *region.Subdivision, w geom.Rect) []int32 {
	t.Helper()
	entries := make([]rstar.Entry, len(sub.Regions))
	for i := range sub.Regions {
		entries[i] = rstar.Entry{Rect: sub.Regions[i].Poly.Bounds(), Data: i}
	}
	rt, err := rstar.BulkLoadSTR(entries, 8)
	if err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	var out []int32
	for _, i := range rt.SearchRect(w) {
		if core.RegionIntersectsRect(sub.Regions[i].Poly, w) {
			out = append(out, int32(i))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// oracleKNN is the brute-force kNN oracle: regions by (site dist², index).
func oracleKNN(sites []geom.Point, p geom.Point, k int) []int32 {
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
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// oracleKNNRStar answers the same kNN through an R*-tree over region MBRs
// with exact site distances at the leaves.
func oracleKNNRStar(t *testing.T, sub *region.Subdivision, sites []geom.Point, p geom.Point, k int) []int32 {
	t.Helper()
	entries := make([]rstar.Entry, len(sub.Regions))
	for i := range sub.Regions {
		entries[i] = rstar.Entry{Rect: sub.Regions[i].Poly.Bounds(), Data: i}
	}
	rt, err := rstar.BulkLoadSTR(entries, 8)
	if err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	got := rt.KNNSites(p, k, func(i int) geom.Point { return sites[i] })
	out := make([]int32, len(got))
	for i, v := range got {
		out[i] = int32(v)
	}
	return out
}

// siteLedger is the kNN ground truth of the continuous suites: the test's
// own mirror of the live site set, advanced by the ops every batch applied,
// and recorded per generation in that generation's bucket order (Shard.IDs,
// bucket -> site id). Each recorded site must lie in its bucket's region,
// so a mis-numbered bucket fails here too. It never reads the adjacency
// table the broadcast carries — that table is what the oracles check.
type siteLedger struct {
	mu     sync.Mutex
	mirror map[int]geom.Point
	gens   map[uint32][]geom.Point
}

// newSiteLedger mirrors the swapper's initial sites (ids 0..n-1) and
// records its first generation.
func newSiteLedger(sw *Swapper, sites []geom.Point) (*siteLedger, error) {
	l := &siteLedger{mirror: make(map[int]geom.Point, len(sites)), gens: make(map[uint32][]geom.Point)}
	for id, p := range sites {
		l.mirror[id] = p
	}
	return l, l.record(sw.Current(0))
}

// apply drives one churn batch through the swapper, advances the mirror by
// the ops that landed, and records the generation now on the air.
func (l *siteLedger) apply(sw *Swapper, ops []stream.SiteOp) error {
	gens, ids, err := sw.Apply(ops)
	if err != nil {
		return err
	}
	l.mu.Lock()
	for i, id := range ids {
		switch ops[i].Kind {
		case stream.OpAdd, stream.OpMove:
			l.mirror[id] = ops[i].P
		case stream.OpRemove:
			delete(l.mirror, id)
		}
	}
	l.mu.Unlock()
	return l.record(sw.Generation(0, gens[0]))
}

// record reads g's sites out of the mirror in bucket order.
func (l *siteLedger) record(g *ShardGeneration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.gens[g.Gen]; ok {
		return nil // a no-op batch left the generation on the air
	}
	if len(g.Shard.IDs) != len(l.mirror) {
		return fmt.Errorf("generation %d: %d buckets, mirror holds %d live sites", g.Gen, len(g.Shard.IDs), len(l.mirror))
	}
	sites := make([]geom.Point, len(g.Shard.IDs))
	for b, id := range g.Shard.IDs {
		p, ok := l.mirror[id]
		if !ok {
			return fmt.Errorf("generation %d: bucket %d names site %d, not live in the mirror", g.Gen, b, id)
		}
		if !g.Shard.Sub.Regions[b].Poly.Contains(p) {
			return fmt.Errorf("generation %d: site %d at %v lies outside bucket %d's region", g.Gen, id, p, b)
		}
		sites[b] = p
	}
	l.gens[g.Gen] = sites
	return nil
}

// sites returns generation gen's recorded sites. A client may pin a
// generation the moment it is published, before the churn goroutine's
// Apply returns and records it, so a missing entry is waited for.
func (l *siteLedger) sites(gen uint32) ([]geom.Point, error) {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		sites, ok := l.gens[gen]
		l.mu.Unlock()
		if ok {
			return sites, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("generation %d never recorded in the site ledger", gen)
		}
	}
}

// verifyOutcome scores one cycle against both oracles for its pinned
// generation and checks the cached buckets are exactly the answer set with
// verified payloads. Returns an error so concurrent steppers can report.
func verifyOutcome(t *testing.T, sw *Swapper, truth *siteLedger, sess *Continuous, q stream.ContinuousQuery, p geom.Point, out ContCycle, capacity int) error {
	g := sw.Generation(0, out.Res.Generation)
	if g == nil {
		return fmt.Errorf("cycle %d at %v: unknown generation %d", out.Cycle, p, out.Res.Generation)
	}
	sub := g.Shard.Sub
	sites, err := truth.sites(out.Res.Generation)
	if err != nil {
		return fmt.Errorf("cycle %d at %v: %w", out.Cycle, p, err)
	}
	reg := int(out.Region)
	if reg < 0 || reg >= sub.N() {
		return fmt.Errorf("cycle %d at %v: region %d out of range (gen %d, %d regions)", out.Cycle, p, reg, out.Res.Generation, sub.N())
	}
	if want := sub.Locate(p); reg != want && !sub.Regions[reg].Poly.Contains(p) {
		return fmt.Errorf("cycle %d at %v: region %d, want %d (gen %d)", out.Cycle, p, reg, want, out.Res.Generation)
	}
	if q.WindowW > 0 || q.WindowH > 0 {
		w := q.Window(p)
		brute := oracleWindow(sub, w)
		if !equalI32(out.Window, brute) {
			return fmt.Errorf("cycle %d at %v (gen %d): window on air %v, brute oracle %v", out.Cycle, p, out.Res.Generation, out.Window, brute)
		}
		if rst := oracleWindowRStar(t, sub, w); !equalI32(out.Window, rst) {
			return fmt.Errorf("cycle %d at %v (gen %d): window on air %v, rstar oracle %v", out.Cycle, p, out.Res.Generation, out.Window, rst)
		}
	}
	if q.K > 0 {
		brute := oracleKNN(sites, p, q.K)
		if !equalI32(out.KNN, brute) {
			return fmt.Errorf("cycle %d at %v (gen %d): knn on air %v, brute oracle %v", out.Cycle, p, out.Res.Generation, out.KNN, brute)
		}
		if rst := oracleKNNRStar(t, sub, sites, p, q.K); !equalI32(out.KNN, rst) {
			return fmt.Errorf("cycle %d at %v (gen %d): knn on air %v, rstar oracle %v", out.Cycle, p, out.Res.Generation, out.KNN, rst)
		}
	}
	// The cache must hold exactly the answer set's buckets, verified.
	needed := map[int]bool{reg: true}
	for _, id := range out.Window {
		needed[int(id)] = true
	}
	for _, id := range out.KNN {
		needed[int(id)] = true
	}
	if got := len(sess.ChannelBuckets(0)); got != len(needed) {
		return fmt.Errorf("cycle %d: %d cached buckets, want %d", out.Cycle, got, len(needed))
	}
	for id := range needed {
		data, ok := sess.ChannelBuckets(0)[id]
		if !ok {
			return fmt.Errorf("cycle %d: answer region %d has no cached bucket", out.Cycle, id)
		}
		if err := stream.VerifyStampedData(data, capacity, id); err != nil {
			return fmt.Errorf("cycle %d: %w", out.Cycle, err)
		}
	}
	if want := float64(out.Res.LastSlot + 1 - out.Res.FirstSlot); out.Res.Latency != want {
		return fmt.Errorf("cycle %d: latency %v does not span observed frames (%v)", out.Cycle, out.Res.Latency, want)
	}
	return nil
}

var testArea = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

// verifyAgainstGeneration checks a point query against the exact program
// its generation stamp names: an answer may come from an older generation
// still on the air, but never be wrong for the generation it claims.
func verifyAgainstGeneration(sw *Swapper, p geom.Point, res stream.Result, capacity int) error {
	gen := sw.Generation(0, res.Generation)
	if gen == nil {
		return fmt.Errorf("query %v: answered under unknown generation %d", p, res.Generation)
	}
	g := gen.Shard
	if res.Bucket < 0 || res.Bucket >= g.Sub.N() {
		return fmt.Errorf("query %v: bucket %d out of range for generation %d (%d regions)", p, res.Bucket, res.Generation, g.Sub.N())
	}
	if want := g.Sub.Locate(p); res.Bucket != want && !g.Sub.Regions[res.Bucket].Poly.Contains(p) {
		return fmt.Errorf("query %v: bucket %d, want %d (generation %d)", p, res.Bucket, want, res.Generation)
	}
	if err := stream.VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
		return fmt.Errorf("query %v (generation %d): %w", p, res.Generation, err)
	}
	return nil
}

// startContinuousServer wires an adjacency-carrying one-channel Swapper to
// a live server, with the site ledger its churn must go through.
func startContinuousServer(t *testing.T, n, capacity int, seed int64) (*Swapper, *siteLedger, *stream.Server) {
	t.Helper()
	sites := testutil.RandomSites(testArea, n, seed)
	sw, err := NewSwapper(testArea, sites, 1, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := newSiteLedger(sw, sites)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := stream.NewServer(ln, sw.Programs()[0])
	if err != nil {
		t.Fatal(err)
	}
	sw.Bind(0, srv)
	go srv.Serve() //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return sw, truth, srv
}

// dialContinuous opens a session of the given mode against the server.
func dialContinuous(t *testing.T, srv *stream.Server, capacity int, mode stream.ContinuousMode, q stream.ContinuousQuery) *Continuous {
	t.Helper()
	client := NewClient([]string{srv.Addr().String()}, capacity)
	t.Cleanup(func() { client.Close() })
	sess := NewContinuous(client, mode, q)
	sess.Metrics = stream.NewContinuousMetrics()
	return sess
}

// TestContinuousOracleUnderChurn is the headline acceptance gate: moving
// clients answer standing window+kNN queries on air while the site
// population churns underneath them, and every cycle's answer matches both
// oracles for the generation it pinned.
func TestContinuousOracleUnderChurn(t *testing.T) {
	const capacity, n = 256, 50
	sw, truth, srv := startContinuousServer(t, n, capacity, 7001)
	q := stream.ContinuousQuery{WindowW: 2500, WindowH: 2000, K: 4}

	// Churn: move/add/remove sites in small batches while clients step.
	stopChurn := make(chan struct{})
	churnDone := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(7002))
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			live := sw.LiveSiteIDs()
			ops := []stream.SiteOp{{Kind: stream.OpMove, ID: live[rng.Intn(len(live))],
				P: geom.Pt(rng.Float64()*10000, rng.Float64()*10000)}}
			if len(live) < n+5 && rng.Intn(2) == 0 {
				ops = append(ops, stream.SiteOp{Kind: stream.OpAdd, P: geom.Pt(rng.Float64()*10000, rng.Float64()*10000)})
			} else if len(live) > n-5 {
				ops = append(ops, stream.SiteOp{Kind: stream.OpRemove, ID: live[rng.Intn(len(live))]})
			}
			if err := truth.apply(sw, ops); err != nil {
				churnDone <- fmt.Errorf("churn batch %d: %w", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Two concurrent moving clients: one fast (crosses boundaries), one
	// slow (mostly revalidates), different models.
	trajs := []dataset.Trajectory{
		dataset.RandomWaypoint(testArea, 18, 7003, 400, 900),
		dataset.Commuter(testArea, 18, 7004, 3, 60, 150, 4),
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(trajs))
	for ti := range trajs {
		sess := dialContinuous(t, srv, capacity, stream.ModeIncremental, q)
		wg.Add(1)
		go func(ti int, sess *Continuous) {
			defer wg.Done()
			traj := trajs[ti]
			for cycle := 0; cycle < len(traj.Positions); cycle++ {
				p := traj.At(cycle)
				out, err := sess.Step(p)
				if err != nil {
					errs <- fmt.Errorf("client %d cycle %d: %v", ti, cycle, err)
					return
				}
				if err := verifyOutcome(t, sw, truth, sess, q, p, out, capacity); err != nil {
					errs <- fmt.Errorf("client %d: %w", ti, err)
					return
				}
			}
		}(ti, sess)
	}
	wg.Wait()
	close(stopChurn)
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestContinuousRevalidationMatchesFresh pins the revalidation-correctness
// contract: an incremental session that only re-descends on boundary
// crossings produces answers bit-identical to a fresh session that
// re-acquires everything every cycle, at every position of the same
// trajectory — while paying a fraction of the tuning.
func TestContinuousRevalidationMatchesFresh(t *testing.T) {
	const capacity, n = 256, 40
	sw, truth, srv := startContinuousServer(t, n, capacity, 7101)
	q := stream.ContinuousQuery{WindowW: 2200, WindowH: 1800, K: 3}

	incr := dialContinuous(t, srv, capacity, stream.ModeIncremental, q)
	fresh := dialContinuous(t, srv, capacity, stream.ModeFresh, q)
	traj := dataset.RandomWaypoint(testArea, 24, 7102, 150, 450)

	var incrTuning, freshTuning int
	for cycle := 0; cycle < len(traj.Positions); cycle++ {
		p := traj.At(cycle)
		a, err := incr.Step(p)
		if err != nil {
			t.Fatalf("incremental cycle %d: %v", cycle, err)
		}
		b, err := fresh.Step(p)
		if err != nil {
			t.Fatalf("fresh cycle %d: %v", cycle, err)
		}
		if a.Res.Generation != b.Res.Generation {
			t.Fatalf("cycle %d: sessions pinned different generations %d vs %d with no churn", cycle, a.Res.Generation, b.Res.Generation)
		}
		if a.Region != b.Region || !equalI32(a.Window, b.Window) || !equalI32(a.KNN, b.KNN) {
			t.Fatalf("cycle %d at %v: incremental answer (%d %v %v) != fresh answer (%d %v %v)",
				cycle, p, a.Region, a.Window, a.KNN, b.Region, b.Window, b.KNN)
		}
		if err := verifyOutcome(t, sw, truth, incr, q, p, a, capacity); err != nil {
			t.Fatal(err)
		}
		if !b.Refreshed {
			t.Fatalf("cycle %d: fresh session did not report a full refresh", cycle)
		}
		incrTuning += a.Res.TotalTuning()
		freshTuning += b.Res.TotalTuning()
	}

	m := incr.Metrics
	if m.RevalidationHits.Load() == 0 {
		t.Fatal("incremental session never revalidated from cache")
	}
	if got, want := m.RevalidationHits.Load()+m.BoundaryRedescents.Load()+m.FullRefreshes.Load(), m.Cycles.Load(); got != want {
		t.Fatalf("outcome counters sum to %d, want %d cycles", got, want)
	}
	if m.FullRefreshes.Load() != 1 {
		t.Fatalf("incremental session full-refreshed %d times with no churn, want 1", m.FullRefreshes.Load())
	}
	if incrTuning >= freshTuning {
		t.Fatalf("incremental tuning %d not below fresh tuning %d", incrTuning, freshTuning)
	}
	t.Logf("tuning: incremental %d, fresh %d (%.1fx); hits=%d redescents=%d",
		incrTuning, freshTuning, float64(freshTuning)/float64(incrTuning),
		m.RevalidationHits.Load(), m.BoundaryRedescents.Load())
}

// TestContinuousLossy runs a continuous session through fault channels: the
// session must recover from dropped and corrupted frames and still match
// the brute oracle every cycle.
func TestContinuousLossy(t *testing.T) {
	const capacity, n = 512, 40
	sub, sites := testutil.RandomVoronoi(t, n, 7203)
	tree, err := core.Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(capacity))
	if err != nil {
		t.Fatal(err)
	}
	fp := paged.Flatten()
	adj, err := core.BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Flat.SetAdjacency(adj); err != nil {
		t.Fatal(err)
	}
	prog, err := stream.ProgramFromFlat(fp, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, spec := range []channel.Spec{
		{Loss: 0.05, Seed: 7204},
		{Loss: 0.05, Burst: 4, Seed: 7205},
		{Corrupt: 0.05, Seed: 7206},
	} {
		ch := channel.New(spec.Model(spec.Seed+1), spec.Seed+2, &channel.Stats{})
		cliEnd, srvEnd := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			prog.Transmit(srvEnd, 11, ch) //nolint:errcheck
		}()
		client := stream.NewClient(cliEnd, capacity)
		fc := NewClientFunc(1, capacity, func(int) (*stream.Client, error) { return client, nil })
		q := stream.ContinuousQuery{WindowW: 2400, WindowH: 2000, K: 3}
		sess := NewContinuous(fc, stream.ModeIncremental, q)
		traj := dataset.RandomWaypoint(sub.Area, 10, spec.Seed, 200, 700)
		for cycle := 0; cycle < len(traj.Positions); cycle++ {
			p := traj.At(cycle)
			out, err := sess.Step(p)
			if err != nil {
				t.Fatalf("spec %+v cycle %d: %v", spec, cycle, err)
			}
			if want := oracleWindow(sub, q.Window(p)); !equalI32(out.Window, want) {
				t.Fatalf("spec %+v cycle %d at %v: window %v, oracle %v", spec, cycle, p, out.Window, want)
			}
			if want := oracleKNN(sites, p, q.K); !equalI32(out.KNN, want) {
				t.Fatalf("spec %+v cycle %d at %v: knn %v, oracle %v", spec, cycle, p, out.KNN, want)
			}
		}
		cliEnd.Close()
		srvEnd.Close()
		<-done
	}
}

// TestContinuousPointQueryCoexistence: on an adjacency-carrying broadcast a
// one-shot client still answers point queries by skipping the appendix with
// QueryShifted, and the appendix length is discoverable from packet 0.
func TestContinuousPointQueryCoexistence(t *testing.T) {
	const capacity, n = 256, 40
	sw, _, srv := startContinuousServer(t, n, capacity, 7301)
	client, err := stream.Dial(srv.Addr().String(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var res stream.Result
	if err := client.Probe(&res); err != nil {
		t.Fatal(err)
	}
	head, err := client.FetchIndexPackets(&res, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	adjPkts, err := core.AdjacencyPacketCount(head[0])
	if err != nil {
		t.Fatalf("packet 0 does not self-describe the appendix: %v", err)
	}
	if adjPkts <= 0 {
		t.Fatalf("appendix of %d packets", adjPkts)
	}
	for _, p := range testutil.QueryPoints(testArea, 12, 7302) {
		var res stream.Result
		if err := client.QueryShifted(p, adjPkts, &res); err != nil {
			t.Fatalf("query %v: %v", p, err)
		}
		if err := verifyAgainstGeneration(sw, p, res, capacity); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSingleChannelOneProbePerCycle pins the cost of the directory-less
// case: the session discovers from packet 0 that a lone channel carries no
// directory, inside channel 0's own leg, so every cycle — the first one
// included — pays exactly one probe on static air.
func TestSingleChannelOneProbePerCycle(t *testing.T) {
	const capacity = 256
	sw, err := NewSwapper(testArea, testutil.RandomSites(testArea, 40, 7401), 1, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	q := stream.ContinuousQuery{WindowW: 2000, WindowH: 2000, K: 3}
	for _, mode := range []stream.ContinuousMode{stream.ModeIncremental, stream.ModeFresh} {
		sess := NewContinuous(pipeAir(t, sw.Programs(), capacity), mode, q)
		traj := dataset.RandomWaypoint(testArea, 12, 7402, 150, 450)
		for cycle := 0; cycle < len(traj.Positions); cycle++ {
			out, err := sess.Step(traj.At(cycle))
			if err != nil {
				t.Fatalf("mode %d cycle %d: %v", mode, cycle, err)
			}
			if out.Res.TuneProbe != 1 || out.Res.EpochRestarts != 0 || out.Home != 0 {
				t.Fatalf("mode %d cycle %d: %d probes, %d restarts, home %d; want 1, 0, 0",
					mode, cycle, out.Res.TuneProbe, out.Res.EpochRestarts, out.Home)
			}
		}
	}
}
