package main

import (
	"encoding/binary"
	"io"
	"sync"
	"time"
)

// Frame header layout of the broadcast wire format (internal/stream):
// magic(2) kind(1) version(1) slot(4) seq(4) payloadLen(2) nextIndex(2)
// gen(4) crc(4), little endian.
const (
	frameHeaderSize = 24
	payloadLenOff   = 12
	genOff          = 16
)

// arrival is the moment a receiver first read a frame of a generation.
type arrival struct {
	gen uint32
	at  time.Time
}

// tap sits under a client's connection and walks the frame headers of the
// byte stream as the client reads it: it counts frames and bytes and stamps
// the first read of every new generation, so "on air at a receiver" is
// measured without instrumenting the program. Generations on one
// connection only grow (a swap lands at a cycle boundary and never goes
// back), so the arrivals are ascending in both generation and time.
type tap struct {
	r io.Reader

	hdr  [frameHeaderSize]byte
	hn   int // header bytes collected for the current frame
	skip int // payload bytes left in the current frame

	mu       sync.Mutex
	frames   int64
	bytes    int64
	maxGen   uint32
	arrivals []arrival
}

func newTap(r io.Reader) *tap { return &tap{r: r} }

func (t *tap) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.walk(p[:n], time.Now())
	}
	return n, err
}

func (t *tap) walk(b []byte, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes += int64(len(b))
	for len(b) > 0 {
		if t.skip > 0 {
			k := t.skip
			if k > len(b) {
				k = len(b)
			}
			t.skip -= k
			b = b[k:]
			continue
		}
		k := copy(t.hdr[t.hn:], b)
		t.hn += k
		b = b[k:]
		if t.hn < frameHeaderSize {
			return
		}
		t.hn = 0
		t.frames++
		t.skip = int(binary.LittleEndian.Uint16(t.hdr[payloadLenOff:]))
		if gen := binary.LittleEndian.Uint32(t.hdr[genOff:]); gen > t.maxGen {
			t.maxGen = gen
			t.arrivals = append(t.arrivals, arrival{gen: gen, at: now})
		}
	}
}

// counts returns the frames and bytes read so far.
func (t *tap) counts() (frames, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frames, t.bytes
}

// seen reports the newest generation read so far.
func (t *tap) seen() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxGen
}

// firstAtLeast returns when the receiver first read a frame of generation
// gen or later (a connection can skip a generation that was replaced before
// its next cycle boundary; the later one carries everything gen did).
func (t *tap) firstAtLeast(gen uint32) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.arrivals {
		if a.gen >= gen {
			return a.at, true
		}
	}
	return time.Time{}, false
}
