package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/ingest"
	"airindex/internal/stream"
)

// TestIngestSweep pins the acceptance shape of the asynchronous-ingest
// experiment: every query at every offered load resolves correctly against
// the generation it completed under (RunIngest fails otherwise), the
// static baseline cuts nothing, loaded cells cut and coalesce, and the
// producer-side and pipeline-side shed accounting agree exactly.
func TestIngestSweep(t *testing.T) {
	ds := dataset.Uniform(40, 6200)
	levels := []int{0, 64, 256}
	ps, err := RunIngest(ds, 256, levels, 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(levels) {
		t.Fatalf("got %d points, want %d", len(ps), len(levels))
	}
	base := ps[0]
	if base.Admitted != 0 || base.Cuts != 0 {
		t.Fatalf("baseline cell admitted %d ops, cut %d generations; want 0, 0", base.Admitted, base.Cuts)
	}
	for _, p := range ps[1:] {
		if p.Cuts == 0 {
			t.Errorf("offered load %d published no generations", p.Offered)
		}
		if p.Admitted+p.Shed != int64(p.Offered) {
			t.Errorf("offered load %d: admitted %d + shed %d != offered", p.Offered, p.Admitted, p.Shed)
		}
		if p.CoalesceRatio < 1 {
			t.Errorf("offered load %d: coalesce ratio %.3f < 1", p.Offered, p.CoalesceRatio)
		}
		if p.AvgLatency <= 0 || p.AvgTuning <= 0 {
			t.Errorf("offered load %d: degenerate averages %+v", p.Offered, p)
		}
	}

	tables := IngestTables(ps)
	if !strings.Contains(tables, "asynchronous ingest") {
		t.Fatalf("tables missing header:\n%s", tables)
	}
	csv := IngestCSV(ps)
	if got := strings.Count(csv, "\n"); got != len(ps)+1 {
		t.Fatalf("csv has %d lines, want %d", got, len(ps)+1)
	}
	if !strings.HasPrefix(csv, "dataset,offered,queries,admitted,") {
		t.Fatalf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
}

// soakSeconds returns the soak duration: short by default so the tier-1
// suite stays fast, extended by the CI acceptance gate via
// AIRINDEX_INGEST_SOAK_SECONDS (the gate uses 30).
func soakSeconds(t *testing.T) time.Duration {
	if s := os.Getenv("AIRINDEX_INGEST_SOAK_SECONDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad AIRINDEX_INGEST_SOAK_SECONDS=%q", s)
		}
		return time.Duration(n) * time.Second
	}
	if testing.Short() {
		return 500 * time.Millisecond
	}
	return 2 * time.Second
}

// TestIngestSoakLive is the overload soak: HTTP producers (including lossy
// ones that send garbage or slam the connection shut), programmatic
// producers, and a verifying broadcast client all hammer one pipeline in
// front of a live server for the soak duration. The pipeline must shed
// deterministically (every submitted op is accounted admitted or shed, and
// every queue-full rejection surfaces as a 429 or ErrQueueFull), keep
// memory bounded, keep every query answer correct, and drain cleanly.
func TestIngestSoakLive(t *testing.T) {
	dur := soakSeconds(t)
	ds := dataset.Uniform(60, 6300)
	const capacity = 256
	const queueCap = 512

	sw, err := stream.NewSwapper(ds.Area, ds.Sites, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := stream.NewServer(ln, sw.Program())
	if err != nil {
		t.Fatal(err)
	}
	sw.Bind(srv)
	go srv.Serve() //nolint:errcheck
	defer srv.Close()

	pipe := ingest.Start(ingest.SwapperSink(sw), ingest.Config{
		QueueCap:    queueCap,
		Policy:      ingest.Reject,
		CutMaxOps:   96,
		CutInterval: 10 * time.Millisecond,
		Logf:        t.Logf,
	})
	web := httptest.NewServer(ingest.NewHandler(pipe))
	defer web.Close()

	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	var wg sync.WaitGroup
	var accepted, rejected atomic.Int64 // ops, from the producers' view

	// HTTP producers: move-heavy batches over private handle spaces, with
	// a slice of malformed bodies (400s must not cost queue slots).
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(6400 + c)))
			handle := int64(-1 - c*1_000_000)
			var live []int64
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				if seq%17 == 16 {
					resp, err := http.Post(web.URL+"/ingest", "application/json",
						strings.NewReader(`{"ops":[{"op":"warp","id":`+strconv.Itoa(seq)+`}]}`))
					if err == nil {
						if resp.StatusCode != http.StatusBadRequest {
							t.Errorf("garbage batch got %d, want 400", resp.StatusCode)
						}
						resp.Body.Close()
					}
					continue
				}
				// Compose the batch against a tentative copy of the handle
				// set: a 429 sheds the batch whole, so the producer must
				// forget its adds and removes to stay self-consistent.
				var ops []map[string]any
				newLive := append([]int64(nil), live...)
				newHandle := handle
				for len(ops) < 8 {
					x := ds.Area.MinX + rng.Float64()*ds.Area.W()
					y := ds.Area.MinY + rng.Float64()*ds.Area.H()
					switch k := rng.Intn(12); {
					case len(newLive) < 3 || k == 0:
						newHandle--
						newLive = append(newLive, newHandle)
						ops = append(ops, map[string]any{"op": "add", "id": newHandle, "x": x, "y": y})
					case k == 1:
						j := rng.Intn(len(newLive))
						ops = append(ops, map[string]any{"op": "remove", "id": newLive[j]})
						newLive = append(newLive[:j], newLive[j+1:]...)
					default:
						ops = append(ops, map[string]any{"op": "move", "id": newLive[rng.Intn(len(newLive))], "x": x, "y": y})
					}
				}
				body, _ := json.Marshal(map[string]any{"ops": ops})
				resp, err := http.Post(web.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted.Add(int64(len(ops)))
					live, handle = newLive, newHandle
				case http.StatusTooManyRequests:
					rejected.Add(int64(len(ops)))
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
				default:
					t.Errorf("batch got unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(c)
	}

	// A lossy client: opens raw connections, writes partial requests, and
	// hangs up. Nothing it does may wedge the handler or skew accounting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		addr := strings.TrimPrefix(web.URL, "http://")
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				continue
			}
			fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n{\"ops\":[")
			conn.Close()
			time.Sleep(time.Millisecond)
		}
	}()

	// A programmatic producer, hammering Enqueue directly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(6500))
		handle := int64(-900_000_000)
		var live []int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			x := ds.Area.MinX + rng.Float64()*ds.Area.W()
			y := ds.Area.MinY + rng.Float64()*ds.Area.H()
			var op ingest.Op
			kind := 0 // 0 add, 1 remove, 2 move
			var j int
			switch k := rng.Intn(12); {
			case len(live) < 3 || k == 0:
				op = ingest.Op{Kind: ingest.OpAdd, ID: handle - 1, X: x, Y: y}
			case k == 1:
				kind, j = 1, rng.Intn(len(live))
				op = ingest.Op{Kind: ingest.OpRemove, ID: live[j]}
			default:
				kind = 2
				op = ingest.Op{Kind: ingest.OpMove, ID: live[rng.Intn(len(live))], X: x, Y: y}
			}
			switch err := pipe.Enqueue(op); err {
			case nil:
				accepted.Add(1)
				// Only an admitted op changes the producer's view: a shed add
				// never existed, a shed remove leaves the site live.
				switch kind {
				case 0:
					handle--
					live = append(live, handle)
				case 1:
					live = append(live[:j], live[j+1:]...)
				}
			case ingest.ErrQueueFull:
				rejected.Add(1)
			default:
				t.Errorf("Enqueue: %v", err)
				return
			}
			if d := pipe.Depth(); d > queueCap {
				t.Errorf("queue depth %d exceeded capacity %d", d, queueCap)
				return
			}
		}
	}()

	// The verifying broadcast client: every answer must be correct for the
	// generation it completed under, for the whole soak.
	client, err := stream.Dial(srv.Addr().String(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	queries := 0
	qrng := rand.New(rand.NewSource(6600))
	for {
		select {
		case <-stop:
		default:
			p := geom.Pt(
				ds.Area.MinX+qrng.Float64()*ds.Area.W(),
				ds.Area.MinY+qrng.Float64()*ds.Area.H(),
			)
			res, err := client.Query(p)
			if err != nil {
				t.Fatalf("query %d: %v", queries, err)
			}
			g := sw.Generation(res.Generation)
			if g == nil {
				t.Fatalf("query %d: unknown generation %d", queries, res.Generation)
			}
			if want := g.Sub.Locate(p); res.Bucket != want && !g.Sub.Regions[res.Bucket].Poly.Contains(p) {
				t.Fatalf("WRONG ANSWER: query %d at %v got bucket %d, want %d (generation %d)",
					queries, p, res.Bucket, want, res.Generation)
			}
			if err := stream.VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
				t.Fatalf("query %d: %v", queries, err)
			}
			queries++
			continue
		}
		break
	}

	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := pipe.Close(ctx); err != nil {
		t.Fatalf("pipeline drain: %v", err)
	}

	m := pipe.Metrics()
	if queries == 0 {
		t.Fatal("soak ran no queries")
	}
	if m.Cuts.Load() == 0 {
		t.Fatal("soak cut no generations")
	}
	if m.QuarantinedBatches.Load() != 0 {
		t.Fatalf("%d batches quarantined during the soak", m.QuarantinedBatches.Load())
	}
	// Deterministic accounting: every submitted op is admitted or shed, and
	// the pipeline's counters match the producers' observations exactly.
	if got, want := m.EnqueuedOps.Load(), accepted.Load(); got != want {
		t.Fatalf("EnqueuedOps = %d, producers saw %d accepted", got, want)
	}
	if got, want := m.ShedOps.Load(), rejected.Load(); got != want {
		t.Fatalf("ShedOps = %d, producers saw %d rejected", got, want)
	}
	if got := pipe.Depth(); got != 0 {
		t.Fatalf("queue depth %d after drain, want 0", got)
	}
	// Bounded memory: the soak's working set stays modest no matter how
	// hard the producers pushed (the queue, not the offered load, is the
	// buffer). The bound is deliberately generous — it catches runaway
	// buffering, not allocator noise.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 512<<20 {
		t.Fatalf("heap after soak = %d MiB, want < 512 MiB", ms.HeapAlloc>>20)
	}
	t.Logf("soak %v: %d queries verified, %d ops admitted, %d shed, %d cuts, fold %.1fx, heap %d MiB",
		dur, queries, m.EnqueuedOps.Load(), m.ShedOps.Load(), m.Cuts.Load(),
		float64(m.CoalescedIn.Load())/float64(max64(m.CoalescedOut.Load(), 1)), ms.HeapAlloc>>20)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkDirectApply is the synchronous baseline the ingest speedup is
// measured against: every 4-op batch pays a full generation cut before the
// next batch may proceed — the PR-4 churn driver's regime.
func BenchmarkDirectApply(b *testing.B) {
	ds := dataset.Uniform(60, 6700)
	sw, err := fabric.NewSwapper(ds.Area, ds.Sites, 1, 256, fabric.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6701))
	ids := sw.LiveSiteIDs()
	b.ResetTimer()
	ops := 0
	for i := 0; i < b.N; i++ {
		batch := make([]stream.SiteOp, 4)
		for j := range batch {
			batch[j] = stream.SiteOp{
				Kind: stream.OpMove,
				ID:   ids[rng.Intn(len(ids))],
				P: geom.Pt(
					ds.Area.MinX+rng.Float64()*ds.Area.W(),
					ds.Area.MinY+rng.Float64()*ds.Area.H(),
				),
			}
		}
		if _, _, err := sw.Apply(batch); err != nil {
			b.Fatal(err)
		}
		ops += len(batch)
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkIngestSustained streams the same move-heavy load through the
// asynchronous pipeline: admission is cheap, coalescing folds the window,
// and cuts amortize over hundreds of operations. The CI bench gate asserts
// its ops/sec beats BenchmarkDirectApply by >= 10x.
func BenchmarkIngestSustained(b *testing.B) {
	ds := dataset.Uniform(60, 6700)
	sw, err := fabric.NewSwapper(ds.Area, ds.Sites, 1, 256, fabric.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pipe := ingest.Start(ingest.FabricSink(sw), ingest.Config{
		QueueCap:     8192,
		Policy:       ingest.Block,
		BlockTimeout: 10 * time.Second,
		CutMaxOps:    512,
		CutInterval:  5 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(6701))
	ids := sw.LiveSiteIDs()
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	ops := 0
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			err := pipe.Enqueue(ingest.Op{
				Kind: ingest.OpMove,
				ID:   int64(ids[rng.Intn(len(ids))]),
				X:    ds.Area.MinX + rng.Float64()*ds.Area.W(),
				Y:    ds.Area.MinY + rng.Float64()*ds.Area.H(),
			})
			if err != nil {
				b.Fatal(err)
			}
			ops++
		}
	}
	if err := pipe.Close(nil); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/sec")
	// Bounded memory under sustained load: heap growth across the run must
	// stay far below the offered volume (the ring, not the stream, is the
	// buffer). Reported for the CI gate to check alongside the speedup.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth < 0 {
		growth = 0
	}
	b.ReportMetric(float64(growth)/(1<<20), "heap-growth-MiB")
}
