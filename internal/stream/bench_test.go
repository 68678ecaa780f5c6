package stream

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"

	"airindex/internal/channel"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/voronoi"
)

func benchProgram(b *testing.B, n, capacity int) *Program {
	b.Helper()
	sub, _ := testutil.RandomVoronoi(b, n, int64(n)*7+3)
	prog, err := NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// transmitSizes are the programs the transmit and render benchmarks run: a
// 200-site cycle that fits in L2, and a 10k-site one at 128 B — the live
// benchmark's broadcast, ~0.8 MB of index packets and a ~0.3 MB data-CRC
// table — where the cost of reading them from memory shows.
var transmitSizes = []struct {
	label           string
	sites, capacity int
}{
	{"sites=200/capacity=256", 200, 256},
	{"sites=10k/capacity=128", 10_000, 128},
}

// transmitFrames drives tx through exactly n frames from slot 0.
func transmitFrames(b *testing.B, tx *transmitter, n int) {
	for slot := 0; slot < n; {
		k, err := tx.transmitRun(slot, slot, n-slot, 1)
		if err != nil {
			b.Fatal(err)
		}
		slot += k
	}
}

// BenchmarkTransmitHotPath measures the per-frame cost of the transmit hot
// path exactly as the live server runs it: no fault middleware, shared
// server metrics attached — every frame outcome is counted. ns/op is per
// frame and bytes/op the wire rate; allocs/op must be 0 (the counts are
// published into pre-resolved counters once per flush;
// TestTransmitHotPathZeroAlloc enforces the same contract as a hard test
// failure).
func BenchmarkTransmitHotPath(b *testing.B) {
	for _, size := range transmitSizes {
		b.Run(size.label, func(b *testing.B) {
			prog := benchProgram(b, size.sites, size.capacity)
			m := NewMetrics()
			tx, err := prog.transmitter(io.Discard, nil, m)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(headerSize + prog.Capacity))
			b.ReportAllocs()
			b.ResetTimer()
			transmitFrames(b, tx, b.N)
			tx.flush() //nolint:errcheck // publishes the pending counts
			if got := m.FramesWritten.Load(); got != int64(b.N) {
				b.Fatalf("metrics counted %d frames, wrote %d", got, b.N)
			}
		})
	}
}

// requireZeroAllocTransmit runs whole transmit runs of prog through ch
// (nil: perfect channel) with metrics attached, and fails unless they
// allocate nothing and every frame outcome was counted.
func requireZeroAllocTransmit(t *testing.T, prog *Program, ch *channel.Channel) *Metrics {
	t.Helper()
	m := NewMetrics()
	tx, err := prog.transmitter(io.Discard, ch, m)
	if err != nil {
		t.Fatal(err)
	}
	slot := 0
	allocs := testing.AllocsPerRun(2000, func() {
		n, err := tx.transmitRun(slot, slot, math.MaxInt, 1)
		if err != nil {
			t.Fatal(err)
		}
		slot += n
	})
	if allocs != 0 {
		t.Fatalf("transmit hot path allocates %.1f times per run, want 0", allocs)
	}
	tx.flush() //nolint:errcheck // publishes the pending counts
	if m.FramesWritten.Load() == 0 || m.BytesWritten.Load() == 0 {
		t.Fatal("metrics did not count the transmitted frames")
	}
	return m
}

// TestTransmitHotPathZeroAlloc pins the zero-allocation contract of the
// instrumented transmit path: with metrics enabled, transmitting on the
// perfect-channel path allocates nothing — for a single channel's program
// and for a fabric shard's, whose data frames carry global ids.
func TestTransmitHotPathZeroAlloc(t *testing.T) {
	for name, prog := range zeroAllocPrograms(t) {
		t.Run(name, func(t *testing.T) { requireZeroAllocTransmit(t, prog, nil) })
	}
}

// TestTransmitLossyZeroAlloc pins the same contract on the fault-channel
// path: under Gilbert–Elliott loss plus bit corruption, where every frame
// is judged on its own in the write buffer, transmit still allocates
// nothing, and drops and corruptions are counted.
func TestTransmitLossyZeroAlloc(t *testing.T) {
	for name, prog := range zeroAllocPrograms(t) {
		t.Run(name, func(t *testing.T) {
			spec := channel.Spec{Loss: 0.08, Burst: 4, Corrupt: 0.03, Seed: 5}
			m := requireZeroAllocTransmit(t, prog, spec.Factory(&channel.Stats{})())
			if m.FramesDropped.Load() == 0 || m.FramesCorrupted.Load() == 0 {
				t.Fatalf("channel dropped %d and corrupted %d frames; the test needs both",
					m.FramesDropped.Load(), m.FramesCorrupted.Load())
			}
		})
	}
}

// zeroAllocPrograms returns the programs the zero-allocation pins run: a
// 200-site single channel at 256 B and a fabric shard (ShardPrograms).
func zeroAllocPrograms(t *testing.T) map[string]*Program {
	sub, _ := testutil.RandomVoronoi(t, 200, 1403)
	prog, err := NewDTreeProgram(sub, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Program{"single": prog, "shard": ShardPrograms(t, 256)[0]}
}

// BenchmarkTransmitPerfectChannel measures the per-frame cost of the
// transmit hot path with no fault middleware and no metrics attached.
// bytes/op is the wire rate; allocs/op is the regression guard (0).
func BenchmarkTransmitPerfectChannel(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	tx, err := prog.transmitter(io.Discard, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(headerSize + prog.Capacity))
	b.ReportAllocs()
	b.ResetTimer()
	transmitFrames(b, tx, b.N)
	tx.flush() //nolint:errcheck
}

// BenchmarkTransmitLossyChannel measures the fault-channel path: each
// frame is copied and stamped on its own, and the middleware drops or
// corrupts it in place in the write buffer.
func BenchmarkTransmitLossyChannel(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	spec := channel.Spec{Loss: 0.05, Burst: 4, Corrupt: 0.01, Seed: 1}
	stats := &channel.Stats{}
	tx, err := prog.transmitter(io.Discard, spec.Factory(stats)(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(headerSize + prog.Capacity))
	b.ReportAllocs()
	b.ResetTimer()
	transmitFrames(b, tx, b.N)
	tx.flush() //nolint:errcheck
}

// BenchmarkClientDoze measures the receive path's per-frame doze cost:
// seek through a recorded perfect-channel stream of the 10k-site, 128 B
// broadcast, where every frame but the target is dozed in place. ns/op is
// per dozed frame; allocs/op must be 0 (TestClientDozeZeroAlloc).
func BenchmarkClientDoze(b *testing.B) {
	const capacity = 128
	prog := benchProgram(b, 10_000, capacity)
	frame := headerSize + capacity
	const frames = 1 << 16
	stream := recordTransmit(b, prog, 0, channel.Spec{}, frames*frame)
	rdr := bytes.NewReader(stream)
	c := NewClient(rdr, capacity)
	var res Result
	b.SetBytes(int64(frame))
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(b.N-done, frames-1)
		rdr.Reset(stream)
		c.r.Reset(rdr)
		c.started = false
		if _, _, _, ok, err := c.seek(n, &res); err != nil || !ok {
			b.Fatalf("seek %d: ok %v, err %v", n, ok, err)
		}
		done += n
	}
}

// BenchmarkRenderCycle measures the one-time cost of rendering a full
// broadcast cycle from scratch — its payload-CRC tables, the state the
// zero-allocation transmit path serves from — at both transmit sizes;
// B/op is what a cold render allocates.
func BenchmarkRenderCycle(b *testing.B) {
	for _, size := range transmitSizes {
		b.Run(size.label, func(b *testing.B) {
			prog := benchProgram(b, size.sites, size.capacity)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc, err := renderCycle(prog, nil)
				if err != nil {
					b.Fatal(err)
				}
				if rc.cycleLen() == 0 {
					b.Fatal("empty cycle")
				}
			}
		})
	}
}

// BenchmarkLoopbackQuery measures wall-clock query-to-answer over the real
// stream, the way a client sees it: a Server on 127.0.0.1 broadcasting the
// 10k-site, 128 B program at full speed (dataset.LargeUniform(10000), the
// live benchmark's broadcast) and one Client issuing closed-loop point
// queries at uniform random points. Every answer is checked: its bucket is
// the arena's answer for the point, and its data carries the bucket's
// stamp (VerifyStampedData). ns/op is per query; frames/s is the server's
// transmit rate over the timed queries.
func BenchmarkLoopbackQuery(b *testing.B) {
	const capacity = 128
	ds := dataset.LargeUniform(10_000)
	sub, err := voronoi.Subdivision(ds.Area, ds.Sites)
	if err != nil {
		b.Fatal(err)
	}
	prog, fp, err := CompileDTree(sub, capacity, 0)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ln, prog)
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	defer srv.Close()
	c, err := Dial(ln.Addr().String(), capacity)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	query := func() {
		p := geom.Pt(ds.Area.MinX+rng.Float64()*ds.Area.W(), ds.Area.MinY+rng.Float64()*ds.Area.H())
		res, err := c.Query(p)
		if err != nil {
			b.Fatalf("query %v: %v", p, err)
		}
		if want, _ := fp.Locate(p); res.Bucket != want {
			b.Fatalf("query %v: bucket %d, the arena says %d", p, res.Bucket, want)
		}
		if err := VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
			b.Fatalf("query %v: %v", p, err)
		}
	}
	query() // tune in
	m := srv.Metrics()
	frames := m.FramesWritten.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	b.StopTimer()
	b.ReportMetric(float64(m.FramesWritten.Load()-frames)/b.Elapsed().Seconds(), "frames/s")
}
