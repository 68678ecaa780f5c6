package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"airindex/internal/channel"
	"airindex/internal/geom"
	"airindex/internal/testutil"
)

// errRecorded ends a recording: the capped writer refuses further bytes.
var errRecorded = errors.New("recording complete")

// capWriter keeps the first n bytes written to it and then fails, so a
// transmitter loop that runs until its writer errors yields a finite,
// usually mid-frame-truncated, byte stream.
type capWriter struct {
	buf []byte
	n   int
}

func (w *capWriter) Write(p []byte) (int, error) {
	if room := w.n - len(w.buf); len(p) > room {
		w.buf = append(w.buf, p[:room]...)
		return room, errRecorded
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// recordTransmit records n bytes of Program.TransmitObserved from startSlot
// through the fault channel spec describes (the zero Spec is a perfect
// channel).
func recordTransmit(tb testing.TB, prog *Program, startSlot int, spec channel.Spec, n int) []byte {
	tb.Helper()
	var ch *channel.Channel
	if spec.Enabled() {
		ch = spec.Factory(&channel.Stats{})()
	}
	w := &capWriter{n: n}
	m := NewMetrics()
	if err := prog.TransmitObserved(w, startSlot, ch, m); !errors.Is(err, errRecorded) {
		tb.Fatalf("transmit: %v", err)
	}
	if m.BytesWritten.Load() < int64(n) {
		tb.Fatalf("metrics published %d bytes written, recorded %d", m.BytesWritten.Load(), n)
	}
	return w.buf
}

// recordSwaps records n bytes of what a server connection carries across
// hot swaps: progs[0] from startSlot under generation 1, then each later
// program in turn from the next cycle boundary under the next generation,
// exactly as streamTo rolls them over: runs never cross a cycle boundary,
// so every boundary starts a run.
func recordSwaps(tb testing.TB, progs []*Program, startSlot int, spec channel.Spec, n int) []byte {
	tb.Helper()
	var ch *channel.Channel
	if spec.Enabled() {
		ch = spec.Factory(&channel.Stats{})()
	}
	w := &capWriter{n: n}
	tx, err := progs[0].transmitter(w, ch, nil)
	if err != nil {
		tb.Fatal(err)
	}
	cur, contentBase := 0, 0
	for slot := startSlot; ; {
		if (slot-contentBase)%progs[cur].Sched.CycleLen() == 0 && slot > startSlot && cur+1 < len(progs) {
			cur++
			if err := tx.retune(progs[cur]); err != nil {
				tb.Fatal(err)
			}
			contentBase = slot
		}
		n, err := tx.transmitRun(slot, slot-contentBase, math.MaxInt, uint32(cur+1))
		if err != nil {
			if !errors.Is(err, errRecorded) {
				tb.Fatalf("transmit: %v", err)
			}
			return w.buf
		}
		slot += n
	}
}

// oracleClient is the protocol surface the identity tests drive on both
// receive paths.
type oracleClient interface {
	Query(p geom.Point) (Result, error)
	Probe(res *Result) error
	LocateShifted(p geom.Point, skip int, res *Result) (int, error)
	FetchIndexPackets(res *Result, lo, hi int) ([][]byte, error)
	FetchBucket(bucket int, res *Result) ([]byte, error)
}

// lenReader is a stream source that reports how many of its bytes it has
// not handed out yet.
type lenReader interface {
	io.Reader
	Len() int
}

// pair runs one receive path of each kind over its own copy of the same
// bytes.
type pair struct {
	stream []byte
	cli    lenReader
	ref    *bytes.Reader
	c      *Client
	r      *refClient
}

func newPair(stream []byte, capacity int) *pair {
	return newPairOver(bytes.NewReader(stream), stream, capacity)
}

// newPairOver is newPair with the Client reading stream through cli.
func newPairOver(cli lenReader, stream []byte, capacity int) *pair {
	p := &pair{stream: stream, cli: cli, ref: bytes.NewReader(stream)}
	p.c = NewClient(p.cli, capacity)
	p.r = newRefClient(p.ref, capacity)
	return p
}

// chunkReader serves a byte stream in short reads of seeded random sizes,
// the way a TCP socket hands a receiver whatever has arrived: a third of
// the reads are at most one frame, a third at most 16 KB, and a third up
// to one and a half receive spans (cut to the room the caller offers). So
// headers and payloads straddle the read-buffer fills at odd offsets.
type chunkReader struct {
	r     *bytes.Reader
	rng   *rand.Rand
	frame int
	short int // reads that returned fewer bytes than the caller asked for
}

func (c *chunkReader) Len() int { return c.r.Len() }

func (c *chunkReader) Read(p []byte) (int, error) {
	limit := c.frame
	switch c.rng.Intn(3) {
	case 1:
		limit = 16 << 10
	case 2:
		limit = rxBufSize + rxBufSize/2
	}
	k := 1 + c.rng.Intn(limit)
	if k < len(p) {
		p = p[:k]
		if k < c.r.Len() {
			c.short++
		}
	}
	return c.r.Read(p)
}

// positions reports how many stream bytes each path has consumed (read
// from the stream and not still buffered).
func (p *pair) positions() (cli, ref int) {
	cli = len(p.stream) - p.cli.Len() - p.c.r.Buffered()
	ref = len(p.stream) - p.ref.Len() - p.r.r.Buffered()
	return cli, ref
}

// op is one scripted protocol exchange; it returns everything observable
// about it on one path.
type op func(c oracleClient) (Result, any, error)

// check runs o on both paths and fails on any difference: the Result
// (every counter, Bucket, Data, Generation, FirstSlot, LastSlot), the
// returned value, the error text, and the stream position. It returns the
// Result and the error.
func (p *pair) check(tb testing.TB, name string, o op) (Result, error) {
	tb.Helper()
	gotRes, gotVal, gotErr := o(p.c)
	wantRes, wantVal, wantErr := o(p.r)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		tb.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !bytes.Equal(gotRes.Data, wantRes.Data) {
		tb.Fatalf("%s: downloaded %d bytes, reference %d, contents differ", name, len(gotRes.Data), len(wantRes.Data))
	}
	gotRes.Data, wantRes.Data = nil, nil
	if !reflect.DeepEqual(gotRes, wantRes) {
		tb.Fatalf("%s: result\n  %+v\nreference\n  %+v", name, gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotVal, wantVal) {
		tb.Fatalf("%s: returned %v, reference %v", name, gotVal, wantVal)
	}
	if c, r := p.positions(); c != r {
		tb.Fatalf("%s: consumed %d stream bytes, reference %d", name, c, r)
	}
	return gotRes, gotErr
}

// script draws a reproducible sequence of protocol exchanges: whole
// queries, and probes followed by hand-driven index fetches, descents and
// bucket downloads, the way the fabric client drives a channel.
func script(rng *rand.Rand, buckets int) (string, op) {
	p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("Query(%v)", p), func(c oracleClient) (Result, any, error) {
			res, err := c.Query(p)
			return res, nil, err
		}
	case 1:
		return fmt.Sprintf("Probe+LocateShifted(%v)+FetchBucket", p), func(c oracleClient) (Result, any, error) {
			var res Result
			if err := c.Probe(&res); err != nil {
				return res, nil, err
			}
			b, err := c.LocateShifted(p, 0, &res)
			if err != nil {
				return res, b, err
			}
			data, err := c.FetchBucket(b, &res)
			return res, data, err
		}
	case 2:
		lo := rng.Intn(3)
		hi := lo + 1 + rng.Intn(3)
		return fmt.Sprintf("Probe+FetchIndexPackets(%d, %d)", lo, hi), func(c oracleClient) (Result, any, error) {
			var res Result
			if err := c.Probe(&res); err != nil {
				return res, nil, err
			}
			pkts, err := c.FetchIndexPackets(&res, lo, hi)
			return res, pkts, err
		}
	default:
		b := rng.Intn(buckets)
		return fmt.Sprintf("Probe+FetchBucket(%d)", b), func(c oracleClient) (Result, any, error) {
			var res Result
			if err := c.Probe(&res); err != nil {
				return res, nil, err
			}
			data, err := c.FetchBucket(b, &res)
			return res, data, err
		}
	}
}

// runScript drives both paths through scripted exchanges until the stream
// is exhausted (plus one exchange past the end) or maxOps ran. It returns
// how many exchanges succeeded and the sum of their recovery counters,
// counting a swap that ended a hand-driven exchange as an epoch restart.
func runScript(tb testing.TB, p *pair, seed int64, buckets, maxOps int) (ok int, sum Result) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	exhausted := false
	for i := 0; i < maxOps; i++ {
		name, o := script(rng, buckets)
		res, err := p.check(tb, fmt.Sprintf("op %d %s", i, name), o)
		if err == nil {
			ok++
		}
		sum.DozedFrames += res.DozedFrames
		sum.LostSlots += res.LostSlots
		sum.CorruptFrames += res.CorruptFrames
		sum.EpochRestarts += res.EpochRestarts
		if errors.Is(err, ErrStaleGeneration) {
			sum.EpochRestarts++ // a hand-driven exchange ran into a swap
		}
		sum.Recoveries += res.Recoveries
		if err != nil && p.cli.Len() == 0 {
			if exhausted {
				break
			}
			exhausted = true
		}
	}
	return ok, sum
}

// TestSkimMatchesReference is the identity oracle of the receive path:
// over byte streams recorded from the transmitter under seeded Bernoulli
// and Gilbert–Elliott loss, bit corruption and mid-stream program swaps,
// the Client — which dozes through buffered frames in bulk — must return
// exactly what the frame-by-frame reference returns, exchange by exchange,
// down to the stream position, including at the truncated end.
func TestSkimMatchesReference(t *testing.T) {
	runSkimCases(t, func(stream []byte, _ int64, capacity int) *pair { return newPair(stream, capacity) })
}

// TestSkimMatchesReferenceChunked runs the same cases with the Client
// reading through a chunkReader: under short, odd-sized reads, frames that
// straddle a read-buffer fill must not change a single exchange.
func TestSkimMatchesReferenceChunked(t *testing.T) {
	var readers []*chunkReader
	runSkimCases(t, func(stream []byte, seed int64, capacity int) *pair {
		cr := &chunkReader{r: bytes.NewReader(stream), rng: rand.New(rand.NewSource(seed)), frame: headerSize + capacity}
		readers = append(readers, cr)
		return newPairOver(cr, stream, capacity)
	})
	short := 0
	for _, cr := range readers {
		short += cr.short
	}
	if short == 0 {
		t.Fatal("the chunked reader never returned a short read")
	}
	t.Logf("%d short reads over %d streams", short, len(readers))
}

// runSkimCases drives the receive-path identity cases, each over streams
// from three start phases and longer than one receive span, with the
// Client and the reference paired by pairOf (the stream, a seed, the
// capacity).
func runSkimCases(t *testing.T, pairOf func(stream []byte, seed int64, capacity int) *pair) {
	const capacity = 128
	sub1, _ := testutil.RandomVoronoi(t, 150, 2101)
	sub2, _ := testutil.RandomVoronoi(t, 170, 2102)
	prog1, err := NewDTreeProgram(sub1, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := NewDTreeProgram(sub2, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := headerSize + capacity
	cycle := prog1.Sched.CycleLen()
	n := 14 * cycle * frame
	if n <= rxBufSize {
		t.Fatalf("a %d-byte stream fits one %d-byte receive span", n, rxBufSize)
	}
	// Each case names the recovery counter its faults must drive, so the
	// identity is checked on the paths that matter, not only on clean air.
	cases := []struct {
		name   string
		stream func(start int) []byte
		drives func(sum Result) int
	}{
		{"perfect", func(s int) []byte { return recordTransmit(t, prog1, s, channel.Spec{}, n) },
			func(sum Result) int { return sum.DozedFrames }},
		{"bernoulli", func(s int) []byte { return recordTransmit(t, prog1, s, channel.Spec{Loss: 0.08, Seed: int64(s)}, n) },
			func(sum Result) int { return sum.LostSlots }},
		{"gilbert-elliott", func(s int) []byte {
			return recordTransmit(t, prog1, s, channel.Spec{Loss: 0.1, Burst: 6, Seed: int64(s)}, n)
		}, func(sum Result) int { return sum.LostSlots }},
		{"corrupt", func(s int) []byte { return recordTransmit(t, prog1, s, channel.Spec{Corrupt: 0.05, Seed: int64(s)}, n) },
			func(sum Result) int { return sum.CorruptFrames }},
		{"swap", func(s int) []byte { return recordSwaps(t, []*Program{prog1, prog2}, s, channel.Spec{}, n) },
			func(sum Result) int { return sum.EpochRestarts }},
		{"swap-storm-lossy", func(s int) []byte {
			progs := []*Program{prog1, prog2, prog1, prog2, prog1}
			return recordSwaps(t, progs, s, channel.Spec{Loss: 0.05, Burst: 3, Corrupt: 0.02, Seed: int64(s)}, n)
		}, func(sum Result) int { return min(sum.EpochRestarts, sum.LostSlots, sum.CorruptFrames) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ok int
			var sum Result
			for _, start := range []int{0, cycle/2 + 7, cycle - 2} {
				k, s := runScript(t, pairOf(tc.stream(start), int64(start)+11, capacity), int64(start)+11, sub1.N(), 200)
				ok += k
				sum.DozedFrames += s.DozedFrames
				sum.LostSlots += s.LostSlots
				sum.CorruptFrames += s.CorruptFrames
				sum.EpochRestarts += s.EpochRestarts
			}
			t.Logf("%d exchanges succeeded; dozed %d, lost %d, corrupt %d, restarts %d",
				ok, sum.DozedFrames, sum.LostSlots, sum.CorruptFrames, sum.EpochRestarts)
			if ok < 10 || tc.drives(sum) == 0 {
				t.Fatalf("%d exchanges succeeded, counters %+v: the stream did not exercise the case", ok, sum)
			}
		})
	}
}

// TestClientDozeZeroAlloc pins the zero-allocation contract of the receive
// path: dozing through buffered frames allocates nothing, and a query's
// allocation count does not depend on how many frames it dozed.
func TestClientDozeZeroAlloc(t *testing.T) {
	const capacity = 128
	sub, _ := testutil.RandomVoronoi(t, 150, 2103)
	prog, err := NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	cycle := prog.Sched.CycleLen()
	frame := headerSize + capacity

	const runs, k = 200, 500
	stream := recordTransmit(t, prog, 0, channel.Spec{}, (runs+2)*k*frame)
	c := NewClient(bytes.NewReader(stream), capacity)
	var res Result
	target := 0
	allocs := testing.AllocsPerRun(runs, func() {
		target += k
		if _, _, _, ok, err := c.seek(target, &res); err != nil || !ok {
			t.Fatalf("seek %d: ok %v, err %v", target, ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("dozing %d frames allocates %.1f times, want 0", k, allocs)
	}
	if res.DozedFrames < runs*(k-1) {
		t.Fatalf("dozed %d frames, want at least %d", res.DozedFrames, runs*(k-1))
	}

	// The same query from tune-in points spread over the cycle dozes
	// through very different frame counts; its downloads are the same, so
	// its allocations must be too.
	p := geom.Pt(3141.5, 2718.25)
	queryAllocs := func(start int) (float64, int) {
		stream := recordTransmit(t, prog, start, channel.Spec{}, 3*cycle*frame)
		rdr := bytes.NewReader(stream)
		c := NewClient(rdr, capacity)
		var last Result
		allocs := testing.AllocsPerRun(5, func() {
			rdr.Reset(stream)
			c.r.Reset(rdr)
			c.started = false
			res, err := c.Query(p)
			if err != nil {
				t.Fatal(err)
			}
			last = res
		})
		return allocs, last.DozedFrames
	}
	base, baseDozed := queryAllocs(0)
	minDozed, maxDozed := baseDozed, baseDozed
	for start := cycle / 8; start < cycle; start += cycle / 8 {
		allocs, dozed := queryAllocs(start)
		if allocs != base {
			t.Fatalf("query dozing %d frames allocates %.0f times; from slot 0 it dozed %d and allocated %.0f",
				dozed, allocs, baseDozed, base)
		}
		minDozed, maxDozed = min(minDozed, dozed), max(maxDozed, dozed)
	}
	if maxDozed-minDozed < cycle/4 {
		t.Fatalf("tune-in points dozed %d..%d frames; the test needs a wider spread", minDozed, maxDozed)
	}
}

// FuzzClientSkim drives the Client and the frame-by-frame reference over
// arbitrary bytes with a scripted exchange sequence: the skim loop must
// never panic, never consume past a frame it rejects (the stream positions
// must agree after every exchange), and return the same errors and
// results as the reference.
func FuzzClientSkim(f *testing.F) {
	// Tiny programs keep the seeds a few KB: a real D-tree of three sites
	// (27 frames a cycle) and a two-site program to swap to.
	const capacity = 128
	sub1, _ := testutil.RandomVoronoi(f, 3, 2104)
	sub2, _ := testutil.RandomVoronoi(f, 2, 2105)
	prog1, err := NewDTreeProgram(sub1, capacity, 0)
	if err != nil {
		f.Fatal(err)
	}
	prog2, err := NewDTreeProgram(sub2, capacity, 0)
	if err != nil {
		f.Fatal(err)
	}
	frame := headerSize + capacity
	n := 2 * prog1.Sched.CycleLen() * frame
	f.Add(recordTransmit(f, prog1, 0, channel.Spec{}, n), uint32(1))
	f.Add(recordTransmit(f, prog1, 5, channel.Spec{Loss: 0.15, Burst: 2, Seed: 3}, n), uint32(2))
	f.Add(recordTransmit(f, prog1, 9, channel.Spec{Corrupt: 0.2, Seed: 4}, n), uint32(3))
	f.Add(recordSwaps(f, []*Program{prog1, prog2, prog1}, 3, channel.Spec{}, n), uint32(4))
	garbled := recordTransmit(f, prog1, 0, channel.Spec{}, n)
	garbled[5*frame+1] ^= 0x40 // bad magic mid-stream
	garbled[9*frame+3] = 2     // foreign version
	garbled[12*frame+12]++     // foreign payload length
	f.Add(garbled, uint32(5))

	f.Fuzz(func(t *testing.T, data []byte, seed uint32) {
		runScript(t, newPair(data, capacity), int64(seed), sub1.N(), 8)
	})
}
