package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"airindex/internal/channel"
)

// The broadcast content is periodic: apart from the absolute slot number in
// the header, the frame transmitted at slot s is identical to the frame at
// slot s % cycleLen. renderedCycle exploits that by rendering every frame
// of one cycle exactly once — header template (slot field zero-adjusted at
// transmit time), payload bytes, and payload CRC — so the per-frame work of
// the serving hot path collapses to "copy the frame into the write buffer,
// patch 8 bytes".
// The table is immutable after renderCycle returns and is shared read-only
// by every connection goroutine.

// renderedFrame is one precomputed slot of the cycle.
type renderedFrame struct {
	hdr     [headerSize]byte // marshaled header with Slot = cycle offset
	payload []byte           // shared read-only payload bytes (CRC already in hdr)
}

// renderedCycle is the slot -> frame table for one Program.
type renderedCycle struct {
	frames    []renderedFrame
	frameSize int // headerSize + capacity
}

func (rc *renderedCycle) cycleLen() int { return len(rc.frames) }

// sizeBytes reports the memory the rendered table pins, for startup logs.
func (rc *renderedCycle) sizeBytes() int { return len(rc.frames) * rc.frameSize }

// renderCycle renders every slot of one broadcast cycle through the same
// frameAt + marshalFrame pipeline the per-frame path used, guaranteeing
// byte-identical wire output (pinned by TestRenderedCycleMatchesFrameAt).
func renderCycle(p *Program) (*renderedCycle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cycle := p.Sched.CycleLen()
	rc := &renderedCycle{
		frames:    make([]renderedFrame, cycle),
		frameSize: headerSize + p.Capacity,
	}
	for pos := 0; pos < cycle; pos++ {
		h, payload := p.frameAt(pos)
		h.CRC = Checksum(payload)
		buf, err := marshalFrame(h, payload)
		if err != nil {
			return nil, err
		}
		f := &rc.frames[pos]
		copy(f.hdr[:], buf[:headerSize])
		f.payload = buf[headerSize:]
	}
	return rc, nil
}

// transmitter is one connection's view of the rendered broadcast: the
// shared frame table, the connection's optional fault channel, and the
// metrics sink frame outcomes are counted into. Frames and bytes written
// since the last flush are held here and published to the metrics once per
// flush (publish), not with two atomics per frame.
type transmitter struct {
	rc *renderedCycle
	ch *channel.Channel
	m  *Metrics

	frames, bytes int64 // written to the buffer, not yet published
}

// transmitter builds the per-connection transmit state, rendering the
// cycle on first use. m may be nil (a private, unread metrics set is
// allocated), so the hot path never branches on instrumentation.
func (p *Program) transmitter(ch *channel.Channel, m *Metrics) (*transmitter, error) {
	rc, err := p.Rendered()
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = NewMetrics()
	}
	return &transmitter{rc: rc, ch: ch, m: m}, nil
}

// newTxWriter returns the write buffer a transmitter assembles frames in:
// txBufSize, or one frame if that is larger.
func newTxWriter(w io.Writer, p *Program) *bufio.Writer {
	return bufio.NewWriterSize(w, max(txBufSize, headerSize+p.Capacity))
}

// retune points the transmitter at another program's rendered cycle, for a
// hot swap mid-connection. The fault channel and the pending counts carry
// over; the capacity, and so the frame size, is the same across a swap.
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
func (t *transmitter) flush(w *bufio.Writer) error {
	err := w.Flush()
	t.publish()
	return err
}

// transmitSlot writes the frame whose content sits at cycle position rel,
// stamped with the absolute slot number abs and the program generation gen
// (both header patches; the payload CRC is unaffected). abs and rel differ
// once a hot swap has replaced the program mid-connection: slot numbering
// runs on uninterrupted while content restarts at the new cycle's origin.
//
// The frame is assembled once, in place in w's free buffer space: header
// template, payload, then the two patches. The bytes are the writer's own,
// never the shared rendered cycle, so the fault middleware may flip payload
// bits in them directly; a dropped frame is simply never committed, its
// slot elapses silently and the next frame's slot number reveals the gap to
// the receiver. Nothing is allocated per frame.
func (t *transmitter) transmitSlot(w *bufio.Writer, abs, rel int, gen uint32) error {
	f := &t.rc.frames[rel%len(t.rc.frames)]
	size := t.rc.frameSize
	if w.Available() < size {
		if err := t.flush(w); err != nil {
			return err
		}
		if w.Available() < size {
			return fmt.Errorf("stream: %d-byte frame exceeds the %d-byte write buffer", size, w.Size())
		}
	}
	buf := w.AvailableBuffer()[:size]
	copy(buf, f.hdr[:])
	copy(buf[headerSize:], f.payload)
	binary.LittleEndian.PutUint32(buf[4:], uint32(abs))
	binary.LittleEndian.PutUint32(buf[16:], gen)
	if t.ch != nil {
		switch t.ch.TransmitFault(buf, headerSize) {
		case channel.Drop:
			t.m.FramesDropped.Inc()
			return nil
		case channel.Corrupt:
			t.m.FramesCorrupted.Inc()
		}
	}
	// Commit the assembled bytes: Write copies buf onto itself.
	if _, err := w.Write(buf); err != nil {
		return err
	}
	t.frames++
	t.bytes += int64(size)
	return nil
}
