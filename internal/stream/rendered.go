package stream

import (
	"encoding/binary"
	"fmt"
	"io"

	"airindex/internal/channel"
)

// The broadcast content is periodic: apart from the absolute slot number
// and the generation in the header, the frame transmitted at slot s is
// identical to the frame at slot s % cycleLen. Almost none of that frame
// needs to be stored, though: an index frame's payload is an IndexPackets
// entry, the same in all m copies; a data frame's payload is its bucket
// and packet ids plus, on a fabric shard, the bucket's global id
// (putData); and the next-index delta is the frame's distance to the end
// of its copy segment, which the schedule gives. The one part that costs
// real work per frame is the payload CRC. So renderedCycle keeps no frames
// at all: it keeps one payload CRC per index offset and one per data
// packet, and the transmitter synthesizes every frame straight into the
// connection's write buffer from those four sources.
//
// A data packet's CRC depends only on its bucket, its packet number and
// the bucket's global id, never on where the packet sits in the cycle. So
// a generation cut without global ids that keeps the capacity and the
// bucket geometry shares the previous generation's data-CRC table by
// reference (renderPatched) and computes only the index CRCs. The tables
// are immutable once built and are shared read-only by every connection
// goroutine and by later generations.
type renderedCycle struct {
	index    [][]byte // the program's index packets, by offset in a copy
	ids      []int    // the program's per-bucket global ids (nil: none)
	indexCRC []uint32 // payload CRC of each index offset
	dataCRC  []uint32 // payload CRC of data packet bucket*bucketPackets + pkt
	// starts holds the cycle position of each index copy, ascending, and
	// the cycle length last: copy j's segment (the copy and the data
	// segment behind it) is [starts[j], starts[j+1]).
	starts        []int
	bucketPackets int
	frameSize     int // headerSize + capacity
}

func (rc *renderedCycle) cycleLen() int { return rc.starts[len(rc.starts)-1] }

// sizeBytes reports the memory the rendered cycle pins beyond the
// program's own index packets and schedule: the CRC tables (the data
// table possibly shared with other generations) and the copy starts.
func (rc *renderedCycle) sizeBytes() int {
	return 4*(len(rc.indexCRC)+len(rc.dataCRC)) + 8*len(rc.starts)
}

// copyAt returns the index copy whose segment holds cycle position pos.
func (rc *renderedCycle) copyAt(pos int) int {
	lo, hi := 0, len(rc.starts)-1
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); rc.starts[mid] <= pos {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// renderCycle computes p's payload-CRC tables. With shared set, the data
// table is taken from it by reference — shared must belong to a program
// with the same capacity and bucket geometry, neither carrying global ids
// (renderPatched) — and only the index CRCs are computed. Byte identity
// of the transmitted frames with the frame-at-a-time wire path is pinned
// by TestTransmitMatchesLegacy.
func renderCycle(p *Program, shared *renderedCycle) (*renderedCycle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := p.Sched
	rc := &renderedCycle{
		index:         p.IndexPackets,
		ids:           p.IDs,
		indexCRC:      make([]uint32, len(p.IndexPackets)),
		starts:        make([]int, s.M+1),
		bucketPackets: s.BucketPackets,
		frameSize:     headerSize + p.Capacity,
	}
	for j := 0; j < s.M; j++ {
		rc.starts[j] = s.IndexStartOf(j)
	}
	rc.starts[s.M] = s.CycleLen()
	for j := 0; j < s.M; j++ {
		// The first frame of a copy is the farthest from the next one.
		if d := rc.starts[j+1] - rc.starts[j]; d > 0xffff {
			return nil, fmt.Errorf("stream: next-index delta %d exceeds 16 bits", d)
		}
	}
	for off, pkt := range p.IndexPackets {
		rc.indexCRC[off] = Checksum(pkt)
	}
	if shared != nil {
		rc.dataCRC = shared.dataCRC
		return rc, nil
	}
	rc.dataCRC = make([]uint32, s.DataPackets())
	payload := make([]byte, p.Capacity)
	for d := range rc.dataCRC {
		clear(payload)
		putData(payload, p.IDs, d/s.BucketPackets, d%s.BucketPackets)
		rc.dataCRC[d] = Checksum(payload)
	}
	return rc, nil
}

// putHeader writes a whole frame header into f as three 8-byte stores.
// Layout, little endian: magic(2) kind(1) version(1) slot(4) seq(4)
// payloadLen(2) nextIndex(2) gen(4) crc(4). renderCycle has checked that
// every next-index delta of the cycle fits 16 bits.
func putHeader(f []byte, kind uint8, slot, seq uint32, payloadLen, nextIndex uint16, gen, crc uint32) {
	_ = f[headerSize-1]
	binary.LittleEndian.PutUint64(f[0:], frameMagic|uint64(kind)<<16|frameVersion<<24|uint64(slot)<<32)
	binary.LittleEndian.PutUint64(f[8:], uint64(seq)|uint64(payloadLen)<<32|uint64(nextIndex)<<48)
	binary.LittleEndian.PutUint64(f[16:], uint64(gen)|uint64(crc)<<32)
}

// transmitter is one connection's view of the rendered broadcast: the
// shared CRC tables, the connection's write buffer and writer, its
// optional fault channel, and the metrics sink frame outcomes are counted
// into. Frames and bytes written since the last flush are held here and
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
// covers at most limit slots and stops at the end of rel's span — an index
// copy, or the data segment behind it, so never past a cycle boundary — or
// when the write buffer is full; a full buffer is flushed first, so every
// run covers at least one slot.
//
// Each frame is synthesized in place in the write buffer: its header, its
// payload (copied from the index packet, or the data stamp putData writes)
// and its CRC from the table. The same loop serves the perfect channel
// and the fault channel. A fault channel judges each frame in the
// writer's own bytes: the middleware may flip payload bits in place, and a
// dropped frame is simply never committed — its slot elapses silently and
// the next frame's slot number reveals the gap to the receiver. Nothing is
// allocated per frame.
func (t *transmitter) transmitRun(abs, rel, limit int, gen uint32) (int, error) {
	rc := t.rc
	fs := rc.frameSize
	if cap(t.buf)-len(t.buf) < fs {
		if err := t.flush(); err != nil {
			return 0, err
		}
	}
	pos := rel % rc.cycleLen()
	j := rc.copyAt(pos)
	copyLen := len(rc.index)
	end := rc.starts[j+1] // the next index copy: every frame's pointer target
	off := pos - rc.starts[j]
	isIndex := off < copyLen
	spanEnd := end
	if isIndex {
		spanEnd = rc.starts[j] + copyLen
	}
	n := min(limit, spanEnd-pos, (cap(t.buf)-len(t.buf))/fs)
	// Data packet d of the cycle (bucket-major) sits behind j+1 copies.
	d := pos - (j+1)*copyLen
	bucket, pkt := 0, 0
	buf := t.buf[:cap(t.buf)]
	w := len(t.buf)
	if !isIndex {
		bucket, pkt = d/rc.bucketPackets, d%rc.bucketPackets
		// Data payloads are stamped over zeros; one bulk clear of the run's
		// frames is far cheaper than one per frame.
		clear(buf[w : w+n*fs])
	}
	payloadLen := uint16(fs - headerSize)
	for k := 0; k < n; k++ {
		f := buf[w : w+fs]
		if isIndex {
			putHeader(f, KindIndex, uint32(abs+k), uint32(off+k), payloadLen, uint16(end-pos-k), gen, rc.indexCRC[off+k])
			copy(f[headerSize:], rc.index[off+k])
		} else {
			putHeader(f, KindData, uint32(abs+k), DataSeq(bucket, pkt), payloadLen, uint16(end-pos-k), gen, rc.dataCRC[d+k])
			putData(f[headerSize:], rc.ids, bucket, pkt)
			if pkt++; pkt == rc.bucketPackets {
				bucket, pkt = bucket+1, 0
			}
		}
		if t.ch != nil {
			switch t.ch.TransmitFault(f, headerSize) {
			case channel.Drop:
				// The next frame reuses this space: give it zeros again.
				clear(f[headerSize:])
				t.m.FramesDropped.Inc()
				continue
			case channel.Corrupt:
				t.m.FramesCorrupted.Inc()
			}
		}
		w += fs
	}
	sent := (w - len(t.buf)) / fs
	t.buf = buf[:w]
	t.frames += int64(sent)
	t.bytes += int64(sent * fs)
	return n, nil
}
