package stream

import (
	"encoding/binary"
	"fmt"
	"io"

	"airindex/internal/channel"
)

// The broadcast content is periodic: apart from the absolute slot number
// and the generation in the header, the frame transmitted at slot s is
// identical to the frame at slot s % cycleLen. renderedCycle exploits that
// by rendering every frame of one cycle exactly once, as whole wire frames
// (header, payload, payload CRC) laid back to back in 2m contiguous slabs:
// one per index copy and one per data segment, in cycle order. The slot
// and generation fields are left zero in the slabs; the transmitter copies
// a run of frames into its write buffer in bulk and stamps those two
// fields at a stride of frameSize, so the per-frame work of the serving
// hot path is two 4-byte stores.
//
// Every byte of a data segment's slab is independent of where the segment
// sits in the cycle: a data frame's next-index delta is its distance to
// the end of its segment, where the next index copy starts. So a
// generation cut that keeps the data layout shares the previous
// generation's data slabs by reference and renders only its index copies
// (renderPatched). The slabs are immutable once rendered and are shared
// read-only by every connection goroutine and by later generations.
type renderedCycle struct {
	starts    []int    // cycle position of each slab's first frame, ascending
	slabs     [][]byte // whole frames of each span, frameSize bytes apiece
	cycle     int
	frameSize int // headerSize + capacity
}

func (rc *renderedCycle) cycleLen() int { return rc.cycle }

// sizeBytes reports the memory the rendered slabs pin, for startup logs.
func (rc *renderedCycle) sizeBytes() int { return rc.cycle * rc.frameSize }

// spanAt returns the index of the slab holding cycle position pos.
func (rc *renderedCycle) spanAt(pos int) int {
	lo, hi := 0, len(rc.starts)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); rc.starts[mid] <= pos {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// renderCycle renders every frame of p's broadcast cycle into fresh slabs.
// With shared set, the data-segment slabs are taken from it by reference —
// shared must hold the slabs of a program with the same capacity, bucket
// geometry, replication and data generator (renderPatched) — and only the
// m index copies are rendered. Byte identity with the frame-at-a-time wire
// path is pinned by TestRenderedCycleMatchesFrameAt.
func renderCycle(p *Program, shared *renderedCycle) (*renderedCycle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := p.Sched
	fs := headerSize + p.Capacity
	rc := &renderedCycle{
		starts:    make([]int, 0, 2*s.M),
		slabs:     make([][]byte, 0, 2*s.M),
		cycle:     s.CycleLen(),
		frameSize: fs,
	}
	crcs := make([]uint32, len(p.IndexPackets))
	for off, pkt := range p.IndexPackets {
		crcs[off] = Checksum(pkt)
	}
	bucket := 0
	for j := 0; j < s.M; j++ {
		start := s.IndexStartOf(j)
		end := rc.cycle
		if j+1 < s.M {
			end = s.IndexStartOf(j + 1)
		}
		idx := make([]byte, len(p.IndexPackets)*fs)
		for off, pkt := range p.IndexPackets {
			f := idx[off*fs : (off+1)*fs]
			copy(f[headerSize:], pkt)
			if err := putHeader(f, KindIndex, uint32(off), end-(start+off), crcs[off]); err != nil {
				return nil, err
			}
		}
		dataStart := start + len(p.IndexPackets)
		rc.starts = append(rc.starts, start, dataStart)
		if shared != nil {
			rc.slabs = append(rc.slabs, idx, shared.slabs[2*j+1])
			continue
		}
		data := make([]byte, (end-dataStart)*fs)
		for pos := dataStart; pos < end; bucket++ {
			for pkt := 0; pkt < s.BucketPackets; pkt, pos = pkt+1, pos+1 {
				f := data[(pos-dataStart)*fs : (pos-dataStart+1)*fs]
				if p.Data != nil {
					copy(f[headerSize:], p.Data(bucket, pkt))
				}
				if err := putHeader(f, KindData, DataSeq(bucket, pkt), end-pos, Checksum(f[headerSize:])); err != nil {
					return nil, err
				}
			}
		}
		rc.slabs = append(rc.slabs, idx, data)
	}
	return rc, nil
}

// putHeader writes the header of the frame f, whose payload is already in
// place: every field but the slot and the generation, which transmit
// stamps.
func putHeader(f []byte, kind uint8, seq uint32, nextIndex int, crc uint32) error {
	if nextIndex > 0xffff {
		return fmt.Errorf("stream: next-index delta %d exceeds 16 bits", nextIndex)
	}
	binary.LittleEndian.PutUint16(f[0:], frameMagic)
	f[2] = kind
	f[3] = frameVersion
	binary.LittleEndian.PutUint32(f[8:], seq)
	binary.LittleEndian.PutUint16(f[12:], uint16(len(f)-headerSize))
	binary.LittleEndian.PutUint16(f[14:], uint16(nextIndex))
	binary.LittleEndian.PutUint32(f[20:], crc)
	return nil
}

// transmitter is one connection's view of the rendered broadcast: the
// shared slabs, the connection's write buffer and writer, its optional
// fault channel, and the metrics sink frame outcomes are counted into.
// Frames and bytes written since the last flush are held here and
// published to the metrics once per flush (publish), not with two atomics
// per frame.
type transmitter struct {
	rc  *renderedCycle
	ch  *channel.Channel
	m   *Metrics
	w   io.Writer
	buf []byte // frames not yet flushed; cap(buf) is the buffer size

	frames, bytes int64 // written to the buffer, not yet published
}

// transmitter builds the per-connection transmit state over w, rendering
// the cycle on first use. The write buffer is txBufSize, or one frame if
// that is larger. m may be nil (a private, unread metrics set is
// allocated), so the hot path never branches on instrumentation.
func (p *Program) transmitter(w io.Writer, ch *channel.Channel, m *Metrics) (*transmitter, error) {
	rc, err := p.Rendered()
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = NewMetrics()
	}
	return &transmitter{rc: rc, ch: ch, m: m, w: w, buf: make([]byte, 0, max(txBufSize, rc.frameSize))}, nil
}

// retune points the transmitter at another program's rendered cycle, for a
// hot swap mid-connection. The fault channel, the buffered frames and the
// pending counts carry over; the capacity, and so the frame size, is the
// same across a swap.
func (t *transmitter) retune(p *Program) error {
	rc, err := p.Rendered()
	if err != nil {
		return err
	}
	t.rc = rc
	return nil
}

// publish adds the counts pending since the last publish to the metrics.
func (t *transmitter) publish() {
	if t.frames != 0 {
		t.m.FramesWritten.Add(t.frames)
		t.m.BytesWritten.Add(t.bytes)
		t.frames, t.bytes = 0, 0
	}
}

// flush writes the buffered frames out and publishes their counts, so the
// wire counters are exact after every flush.
func (t *transmitter) flush() error {
	var err error
	if len(t.buf) > 0 {
		var n int
		n, err = t.w.Write(t.buf)
		if err == nil && n < len(t.buf) {
			err = io.ErrShortWrite
		}
		t.buf = t.buf[:0]
	}
	t.publish()
	return err
}

// transmitRun writes the frames at cycle positions rel, rel+1, … stamped
// with the absolute slots abs, abs+1, … and the program generation gen,
// and returns how many slots it covered. abs and rel differ once a hot
// swap has replaced the program mid-connection: slot numbering runs on
// uninterrupted while content restarts at the new cycle's origin. A run
// covers at most limit slots and stops at the end of rel's slab — so never
// past a cycle boundary — or when the write buffer is full; a full buffer
// is flushed first, so every run covers at least one slot.
//
// On the perfect channel the run is one bulk copy from the slab plus two
// 4-byte stamps per frame. Through a fault channel each frame is copied and
// stamped on its own and gets its verdict in the writer's own bytes, never
// the shared slab: the middleware may flip payload bits in place, and a
// dropped frame is simply never committed — its slot elapses silently and
// the next frame's slot number reveals the gap to the receiver. Nothing is
// allocated per frame.
func (t *transmitter) transmitRun(abs, rel, limit int, gen uint32) (int, error) {
	fs := t.rc.frameSize
	if cap(t.buf)-len(t.buf) < fs {
		if err := t.flush(); err != nil {
			return 0, err
		}
	}
	pos := rel % t.rc.cycle
	i := t.rc.spanAt(pos)
	slab := t.rc.slabs[i][(pos-t.rc.starts[i])*fs:]
	n := min(limit, len(slab)/fs, (cap(t.buf)-len(t.buf))/fs)
	if t.ch == nil {
		w := len(t.buf)
		t.buf = append(t.buf, slab[:n*fs]...)
		for f := t.buf[w:]; len(f) > 0; f = f[fs:] {
			binary.LittleEndian.PutUint32(f[4:], uint32(abs))
			binary.LittleEndian.PutUint32(f[16:], gen)
			abs++
		}
		t.frames += int64(n)
		t.bytes += int64(n * fs)
		return n, nil
	}
	for k := 0; k < n; k++ {
		w := len(t.buf)
		t.buf = append(t.buf, slab[k*fs:(k+1)*fs]...)
		f := t.buf[w:]
		binary.LittleEndian.PutUint32(f[4:], uint32(abs+k))
		binary.LittleEndian.PutUint32(f[16:], gen)
		switch t.ch.TransmitFault(f, headerSize) {
		case channel.Drop:
			t.buf = t.buf[:w]
			t.m.FramesDropped.Inc()
			continue
		case channel.Corrupt:
			t.m.FramesCorrupted.Inc()
		}
		t.frames++
		t.bytes += int64(fs)
	}
	return n, nil
}
