// Package stream puts the broadcast system on a real wire: a server that
// cyclically transmits the paged index and the data buckets as framed
// packets over any net.Conn (TCP in the demos), and a client that
// implements the paper's access protocol against the live stream — initial
// probe, doze (skim frames without parsing payloads), selective index
// parsing through the D-tree byte decoder, and data retrieval — while
// accounting latency in slots and tuning in parsed packets. The frame
// format carries a payload checksum and every frame points at the next
// index copy, so a client surviving an unreliable channel (see
// internal/channel) can detect corruption and loss and resynchronize by
// the paper's own mechanism.
package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame kinds.
const (
	KindIndex = 0x00
	KindData  = 0x01
)

const frameMagic = 0x4158 // "AX"

// frameVersion is the wire-format version. v1 was the checksum-less
// 16-byte header; v2 claimed the former pad byte as a version field and
// appended a CRC32 payload checksum; v3 adds the 32-bit broadcast
// generation so clients detect live program swaps (site churn) and abandon
// stale index state instead of decoding the wrong program.
const frameVersion = 3

// headerSize is the fixed frame-header length in bytes.
const headerSize = 24

// Header describes one broadcast frame. Every frame carries the offset to
// the start of the next index copy — the paper's "pointer to the root of
// the next index" present in every packet — so a client can probe at any
// moment, a CRC over the payload so it can tell a damaged download from a
// good one, and the generation of the program it belongs to so a mid-query
// hot swap is detected the instant the first new-generation frame is
// observed.
type Header struct {
	Kind       uint8
	Slot       uint32 // absolute slot number, strictly increasing
	Seq        uint32 // index: packet offset in the copy; data: bucket<<8 | packet-in-bucket
	NextIndex  uint32 // slots from this frame to the next index-copy start
	PayloadLen uint16
	Gen        uint32 // broadcast program generation (bumped by every hot swap)
	CRC        uint32 // IEEE CRC32 of the payload
}

// MaxBucketPackets bounds the packets of one data bucket: DataSeq keeps
// the packet-in-bucket in the low 8 bits of the sequence field, so a
// bucket spanning more packets would silently alias. Program validation
// rejects such programs at build time.
const MaxBucketPackets = 256

// DataSeq packs a data frame's sequence field. pkt must be below
// MaxBucketPackets; Program.Validate enforces that before any frame is
// rendered.
func DataSeq(bucket, pkt int) uint32 { return uint32(bucket)<<8 | uint32(pkt&0xff) }

// Bucket extracts the bucket id from a data frame's sequence field.
func (h Header) Bucket() int { return int(h.Seq >> 8) }

// BucketPacket extracts the packet-within-bucket from a data frame.
func (h Header) BucketPacket() int { return int(h.Seq & 0xff) }

// Checksum computes the payload checksum carried by every frame. CRC32
// detects any single-bit error with certainty, which is exactly the damage
// the corruption fault model injects.
func Checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// marshalFrame serializes a frame (header + payload), writing h.CRC
// verbatim — the transmit path stamps it before the fault middleware may
// damage the payload, so corruption on the air is detectable. Header
// layout, little endian: magic(2) kind(1) version(1) slot(4) seq(4)
// payloadLen(2) nextIndex(2) gen(4) crc(4). The 16-bit next-index delta
// bounds one (1, m) data segment plus index copy at 65535 slots, ample for
// every paper configuration.
func marshalFrame(h Header, payload []byte) ([]byte, error) {
	if len(payload) != int(h.PayloadLen) {
		return nil, fmt.Errorf("stream: payload %d bytes, header says %d", len(payload), h.PayloadLen)
	}
	if h.NextIndex > 0xffff {
		return nil, fmt.Errorf("stream: next-index delta %d exceeds 16 bits", h.NextIndex)
	}
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint16(buf[0:], frameMagic)
	buf[2] = h.Kind
	buf[3] = frameVersion
	binary.LittleEndian.PutUint32(buf[4:], h.Slot)
	binary.LittleEndian.PutUint32(buf[8:], h.Seq)
	binary.LittleEndian.PutUint16(buf[12:], h.PayloadLen)
	binary.LittleEndian.PutUint16(buf[14:], uint16(h.NextIndex))
	binary.LittleEndian.PutUint32(buf[16:], h.Gen)
	binary.LittleEndian.PutUint32(buf[20:], h.CRC)
	copy(buf[headerSize:], payload)
	return buf, nil
}

// writeFrame stamps the payload checksum and emits a frame to w — the
// honest-transmitter path used when no fault middleware intervenes.
func writeFrame(w io.Writer, h Header, payload []byte) error {
	h.CRC = Checksum(payload)
	buf, err := marshalFrame(h, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readHeader reads and validates a frame header from any reader. The
// client parses headers in place from its read buffer instead (parseHeader
// over a Peek), so this copy-out form serves tests and tools.
func readHeader(r io.Reader) (Header, error) {
	var buf [headerSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Header{}, err
	}
	return parseHeader(buf[:])
}

// parseHeader validates and decodes the frame header at the start of b,
// which must hold at least headerSize bytes.
func parseHeader(b []byte) (Header, error) {
	b = b[:headerSize]
	if binary.LittleEndian.Uint16(b[0:]) != frameMagic {
		return Header{}, fmt.Errorf("stream: bad frame magic")
	}
	if b[3] != frameVersion {
		return Header{}, fmt.Errorf("stream: frame version %d, this client speaks %d", b[3], frameVersion)
	}
	return Header{
		Kind:       b[2],
		Slot:       binary.LittleEndian.Uint32(b[4:]),
		Seq:        binary.LittleEndian.Uint32(b[8:]),
		PayloadLen: binary.LittleEndian.Uint16(b[12:]),
		NextIndex:  uint32(binary.LittleEndian.Uint16(b[14:])),
		Gen:        binary.LittleEndian.Uint32(b[16:]),
		CRC:        binary.LittleEndian.Uint32(b[20:]),
	}, nil
}
