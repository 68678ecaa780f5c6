package stream

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"airindex/internal/channel"
	"airindex/internal/testutil"
)

// frame returns the bytes the transmitter synthesizes for cycle position
// pos: header and payload, CRC stamped, slot and generation fields zero.
func (rc *renderedCycle) frame(pos int) []byte {
	var out bytes.Buffer
	tx := &transmitter{rc: rc, m: NewMetrics(), w: &out, buf: make([]byte, 0, rc.frameSize)}
	if _, err := tx.transmitRun(0, pos, 1, 0); err != nil {
		panic(err)
	}
	if err := tx.flush(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// frameAt renders the frame broadcast at cycle position slot % cycle from
// scratch — the original per-frame render, kept as the oracle.
func (p *Program) frameAt(slot int) (Header, []byte) {
	cycle := p.Sched.CycleLen()
	pos := slot % cycle
	next := p.Sched.NextIndexStart(float64(pos) + 1e-9)
	// Delta from this slot to the next index copy (strictly ahead).
	if next == pos {
		next = p.Sched.NextIndexStart(float64(pos) + 1)
	}
	h := Header{Slot: uint32(slot), NextIndex: uint32(next - pos), PayloadLen: uint16(p.Capacity)}

	// Which region of the cycle is pos in?
	idxStart := -1
	for j := 0; j < p.Sched.M; j++ {
		s := p.Sched.IndexStartOf(j)
		if pos >= s && pos < s+p.Sched.IndexPackets {
			idxStart = s
			break
		}
	}
	if idxStart >= 0 {
		off := pos - idxStart
		h.Kind = KindIndex
		h.Seq = uint32(off)
		return h, p.IndexPackets[off]
	}
	bucket, pkt := p.Sched.BucketAt(pos)
	h.Kind = KindData
	h.Seq = DataSeq(bucket, pkt)
	// The data stamp, field by field: bucket and packet ids in bytes [0,8)
	// and, on a program with global ids, the bucket's id in bytes [8,12).
	payload := make([]byte, p.Capacity)
	binary.LittleEndian.PutUint32(payload[0:], uint32(bucket))
	binary.LittleEndian.PutUint32(payload[4:], uint32(pkt))
	if p.IDs != nil && p.Capacity >= 12 {
		binary.LittleEndian.PutUint32(payload[8:], uint32(p.IDs[bucket]))
	}
	return h, payload
}

// legacyTransmitSlot is the original frame-at-a-time transmit path (render
// the frame from scratch, stamp the checksum, marshal, pass it through the
// fault channel, write), kept here as the reference the synthesizing
// transmitter must match byte for byte: the content of cycle position
// rel, stamped with the absolute slot abs and the generation gen. ch may
// be nil (perfect channel).
func legacyTransmitSlot(w io.Writer, p *Program, abs, rel int, gen uint32, ch *channel.Channel) error {
	h, payload := p.frameAt(rel)
	h.Slot = uint32(abs)
	h.Gen = gen
	h.CRC = Checksum(payload)
	buf, err := marshalFrame(h, payload)
	if err != nil {
		return err
	}
	if ch != nil && !ch.Transmit(buf, headerSize) {
		return nil
	}
	_, err = w.Write(buf)
	return err
}

// legacyRecord is recordSwaps on the legacy path: n bytes of progs[0] from
// startSlot under generation 1, each later program taking over at the next
// cycle boundary under the next generation, through the fault channel spec
// describes.
func legacyRecord(tb testing.TB, progs []*Program, startSlot int, spec channel.Spec, n int) []byte {
	tb.Helper()
	var ch *channel.Channel
	if spec.Enabled() {
		ch = spec.Factory(&channel.Stats{})()
	}
	var out bytes.Buffer
	cur, contentBase := 0, 0
	for slot := startSlot; out.Len() < n; slot++ {
		if (slot-contentBase)%progs[cur].Sched.CycleLen() == 0 && slot > startSlot && cur+1 < len(progs) {
			cur++
			contentBase = slot
		}
		if err := legacyTransmitSlot(&out, progs[cur], slot, slot-contentBase, uint32(cur+1), ch); err != nil {
			tb.Fatal(err)
		}
	}
	return out.Bytes()[:n]
}

// requireSameBytes fails at the first byte where got and want differ.
func requireSameBytes(tb testing.TB, label string, got, want []byte, frame int) {
	tb.Helper()
	if bytes.Equal(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			tb.Fatalf("%s: first divergence at byte %d (frame %d, offset %d): got %#x want %#x",
				label, i, i/frame, i%frame, got[i], want[i])
		}
	}
	tb.Fatalf("%s: length mismatch: got %d want %d", label, len(got), len(want))
}

// TestRenderedCycleMatchesFrameAt pins the wire format: every synthesized
// frame, read through the frame accessor, is the per-frame render with its
// slot and generation fields zero, and the transmit path emits exactly the
// bytes the per-frame path emitted across more than one full cycle
// (absolute slot numbers beyond the cycle length exercise the stamping).
func TestRenderedCycleMatchesFrameAt(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 40, 283)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := prog.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	cycle := prog.Sched.CycleLen()
	frame := headerSize + prog.Capacity
	for pos := 0; pos < cycle; pos++ {
		var want bytes.Buffer
		if err := legacyTransmitSlot(&want, prog, 0, pos, 0, nil); err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, "frame accessor", rc.frame(pos), want.Bytes(), frame)
	}

	slots := 2*cycle + 7
	got := recordTransmit(t, prog, 0, channel.Spec{}, slots*frame)
	want := legacyRecord(t, []*Program{prog}, 0, channel.Spec{}, slots*frame)
	requireSameBytes(t, "transmit", got, want, frame)
}

// ShardPrograms returns successive generations of one fabric shard's
// program at the given capacity: a directory prefix and an adjacency
// appendix in every index copy, and global ids (Program.IDs) in every data
// packet. The fabric imports this package, so the external test file
// shard_programs_test.go sets it.
var ShardPrograms func(tb testing.TB, capacity int) []*Program

// churnedPrograms cuts a swapper through move-only batches until it has
// published both a generation whose schedule kept its alignment and one
// whose schedule drifted, each sharing the data-CRC table of the
// generation before it; it returns the programs from generation 1 on.
func churnedPrograms(tb testing.TB, capacity int) []*Program {
	tb.Helper()
	sw, err := NewSwapper(testArea, testutil.RandomSites(testArea, 120, 8401), capacity, 0)
	if err != nil {
		tb.Fatal(err)
	}
	progs := []*Program{sw.Program()}
	rng := rand.New(rand.NewSource(8402))
	aligned, drifted := false, false
	for step := 0; step < 60 && !(aligned && drifted); step++ {
		if _, _, err := sw.Apply(moveOps(rng, sw, 1+rng.Intn(3))); err != nil {
			tb.Fatal(err)
		}
		prev, next := progs[len(progs)-1], sw.Program()
		if !sharesDataCRC(prev.rendered, next.rendered) {
			continue
		}
		if prev.Sched.IndexPackets == next.Sched.IndexPackets {
			if aligned {
				continue
			}
			aligned = true
		} else {
			drifted = true
		}
		progs = append(progs, next)
	}
	if !aligned || !drifted {
		tb.Fatalf("60 cuts gave no aligned (%v) or no drifted (%v) table-sharing generation", aligned, drifted)
	}
	return progs
}

// sharesDataCRC reports whether b's data-CRC table is a's, by reference.
func sharesDataCRC(a, b *renderedCycle) bool {
	return a != nil && b != nil && len(a.dataCRC) > 0 && len(a.dataCRC) == len(b.dataCRC) &&
		&a.dataCRC[0] == &b.dataCRC[0]
}

// TestTransmitMatchesLegacy is the transmit path's identity oracle: the
// bytes the synthesizing transmitter puts on the wire equal the
// frame-at-a-time legacyTransmitSlot reference from several start phases
// (one of them wrapping the 32-bit slot field), across hot swaps to
// generations whose schedule kept or shifted its alignment while sharing
// the data-CRC table, under Gilbert–Elliott loss plus corruption, and from
// a live server pacing every frame. A fabric shard's generations run the
// same perfect, lossy and swap checks: their index copies lead with the
// directory and the adjacency appendix, and their data packets carry
// global ids, so a CRC table built without them shows here.
func TestTransmitMatchesLegacy(t *testing.T) {
	const capacity = 128
	sub, _ := testutil.RandomVoronoi(t, 90, 8403)
	prog, err := NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	shard := ShardPrograms(t, capacity)
	frame := headerSize + capacity
	lossy := channel.Spec{Loss: 0.1, Burst: 4, Corrupt: 0.05, Seed: 17}
	for _, tc := range []struct {
		name  string
		prog  *Program   // the perfect and lossy runs
		swaps []*Program // the swap runs, from generation 1 on
	}{
		{"single", prog, churnedPrograms(t, capacity)},
		{"shard", shard[0], shard},
	} {
		cycle := tc.prog.Sched.CycleLen()
		for _, start := range []int{0, cycle/2 + 7, cycle - 2, 1<<32 - 5} {
			n := 3*cycle*frame + 5
			requireSameBytes(t, tc.name+" perfect", recordTransmit(t, tc.prog, start, channel.Spec{}, n),
				legacyRecord(t, []*Program{tc.prog}, start, channel.Spec{}, n), frame)
			requireSameBytes(t, tc.name+" lossy", recordTransmit(t, tc.prog, start, lossy, n),
				legacyRecord(t, []*Program{tc.prog}, start, lossy, n), frame)

			n = (len(tc.swaps) + 1) * tc.swaps[0].Sched.CycleLen() * frame
			for _, spec := range []channel.Spec{{}, lossy} {
				requireSameBytes(t, tc.name+" swaps", recordSwaps(t, tc.swaps, start, spec, n),
					legacyRecord(t, tc.swaps, start, spec, n), frame)
			}
		}
	}

	// Real-time pacing: one-frame runs, each flushed on its slot tick.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ln, prog)
	if err != nil {
		t.Fatal(err)
	}
	cycle := prog.Sched.CycleLen()
	start := cycle - 3
	srv.SlotDuration = time.Microsecond
	srv.StartSlot = func() int { return start }
	srv.Channel = lossy.Factory(&channel.Stats{})
	go srv.Serve() //nolint:errcheck
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	got := make([]byte, (cycle+20)*frame)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "paced", got, legacyRecord(t, []*Program{prog}, start, lossy, len(got)), frame)
}

// TestTransmitPerfectChannelZeroAllocs pins the tentpole property: once the
// cycle is rendered, the perfect-channel transmit path performs zero heap
// allocations per frame.
func TestTransmitPerfectChannelZeroAllocs(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 40, 283)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := prog.transmitter(io.Discard, nil, nil)
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
		t.Fatalf("perfect-channel transmitRun allocates %.1f objects/run, want 0", allocs)
	}
}

// TestTransmitRunBounds pins where runs stop: at the end of the span (an
// index copy or the data segment behind it, so never past a cycle
// boundary), at the caller's limit, and at a full write buffer, which is
// flushed before the next run.
func TestTransmitRunBounds(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 40, 283)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	tx, err := prog.transmitter(&sink, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Sched
	fs := headerSize + prog.Capacity
	perBuf := cap(tx.buf) / fs
	cycle := s.CycleLen()
	for slot := 0; slot < 3*cycle; {
		pos := slot % cycle
		next := s.NextIndexStart(float64(pos) + 1) // the next copy start, strictly ahead
		copyStart := 0
		for j := 0; j < s.M; j++ {
			if s.IndexStartOf(j) <= pos {
				copyStart = s.IndexStartOf(j)
			}
		}
		spanLeft := next - pos
		if pos < copyStart+s.IndexPackets {
			spanLeft = copyStart + s.IndexPackets - pos
		}
		room := (cap(tx.buf) - len(tx.buf)) / fs
		if room == 0 {
			room = perBuf
		}
		n, err := tx.transmitRun(slot, slot, math.MaxInt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(spanLeft, room); n != want {
			t.Fatalf("slot %d: run of %d frames, want %d (span left %d, buffer room %d)", slot, n, want, spanLeft, room)
		}
		slot += n
	}
	if n, err := tx.transmitRun(5, 5, 1, 1); err != nil || n != 1 {
		t.Fatalf("limit 1: run of %d frames, err %v", n, err)
	}
	if err := tx.flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != (3*cycle+1)*fs {
		t.Fatalf("flushed %d bytes, want %d", sink.Len(), (3*cycle+1)*fs)
	}
}

// TestRenderedSize sanity-checks the startup diagnostic: the cycle's
// frame count, and the bytes its CRC tables and copy starts pin — one CRC
// per index offset and one per data packet, not a copy of every frame.
func TestRenderedSize(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 20, 117)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames, size, err := prog.RenderedSize()
	if err != nil {
		t.Fatal(err)
	}
	if frames != prog.Sched.CycleLen() {
		t.Errorf("frames = %d, want cycle %d", frames, prog.Sched.CycleLen())
	}
	if want := 4*(prog.Sched.IndexPackets+prog.Sched.DataPackets()) + 8*(prog.Sched.M+1); size != want {
		t.Errorf("size = %d, want %d", size, want)
	}
}

// writeRecord is one Write a server connection made: its length, and the
// server's wire counters when it was made.
type writeRecord struct {
	n             int
	frames, bytes int64
}

// recordingListener hands the server connections whose every Write is
// recorded with the server's wire counters at that moment.
type recordingListener struct {
	net.Listener
	m      func() *Metrics
	mu     sync.Mutex
	writes []writeRecord
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, l: l}, nil
}

type recordingConn struct {
	net.Conn
	l *recordingListener
}

func (c *recordingConn) Write(p []byte) (int, error) {
	m := c.l.m()
	c.l.mu.Lock()
	c.l.writes = append(c.l.writes, writeRecord{len(p), m.FramesWritten.Load(), m.BytesWritten.Load()})
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// TestTransmitWriteContract pins how a server connection writes: at full
// speed every Write is a whole number of frames and at most one transmit
// span, and all but the last fill the span as far as whole frames go; with
// real-time pacing every Write is exactly one frame, flushed on its slot
// tick. Either way the wire counters are exact after every flush: each
// Write sees the counters cover every earlier Write, and once the
// connection is gone they cover them all.
func TestTransmitWriteContract(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 40, 283)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := headerSize + prog.Capacity
	fullSpan := txBufSize / fs * fs
	for _, tc := range []struct {
		name   string
		slot   time.Duration
		frames int // frames the receiver reads before hanging up
	}{
		{"full-speed", 0, 5 * fullSpan / fs},
		{"paced", time.Microsecond, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			rl := &recordingListener{Listener: ln}
			srv, err := NewServer(rl, prog)
			if err != nil {
				t.Fatal(err)
			}
			rl.m = srv.Metrics
			srv.SlotDuration = tc.slot
			go srv.Serve() //nolint:errcheck
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
			if _, err := io.ReadFull(conn, make([]byte, tc.frames*fs)); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			srv.Close()

			writes := rl.writes
			if len(writes) < 2 {
				t.Fatalf("%d writes; the test needs several", len(writes))
			}
			var frames, bytes int64
			for i, w := range writes {
				switch {
				case w.n%fs != 0 || w.n == 0:
					t.Fatalf("write %d: %d bytes is not a whole number of %d-byte frames", i, w.n, fs)
				case tc.slot > 0 && w.n != fs:
					t.Fatalf("paced write %d: %d bytes, want one %d-byte frame", i, w.n, fs)
				case tc.slot == 0 && w.n > txBufSize:
					t.Fatalf("write %d: %d bytes exceeds the %d-byte span", i, w.n, txBufSize)
				case tc.slot == 0 && i < len(writes)-1 && w.n != fullSpan:
					t.Fatalf("write %d: %d bytes, want a full %d-byte span", i, w.n, fullSpan)
				}
				if w.frames != frames || w.bytes != bytes {
					t.Fatalf("write %d: counters at %d frames / %d bytes, earlier writes carried %d / %d",
						i, w.frames, w.bytes, frames, bytes)
				}
				frames += int64(w.n / fs)
				bytes += int64(w.n)
			}
			m := srv.Metrics()
			if m.FramesWritten.Load() != frames || m.BytesWritten.Load() != bytes {
				t.Fatalf("counters at %d frames / %d bytes after the last flush, writes carried %d / %d",
					m.FramesWritten.Load(), m.BytesWritten.Load(), frames, bytes)
			}
		})
	}
}
