// Package channel simulates unreliable broadcast channels. The paper's
// whole setting is wireless: frames vanish (fading, collisions) and arrive
// with flipped bits (noise), and the (1, m) index replication exists
// precisely so a client that misses packets can resynchronize at the next
// index copy. This package provides deterministic, seedable fault models —
// i.i.d. Bernoulli loss, Gilbert–Elliott bursty loss, and payload
// bit-corruption — as a frame-level middleware the server transmit path
// runs every outgoing frame through, plus per-channel statistics, so
// experiments can quantify what channel quality costs in latency and
// tuning energy.
package channel

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Fault is the fate the channel assigns to one frame.
type Fault uint8

const (
	// Deliver passes the frame through untouched.
	Deliver Fault = iota
	// Drop discards the frame; its slot elapses silently on the air.
	Drop
	// Corrupt delivers the frame with payload bits flipped.
	Corrupt
)

// Model is a deterministic fault process: successive calls to Next yield
// the fate of successive frames. Instances carry RNG and Markov state, so
// they are not safe for concurrent use — create one per connection (see
// Spec.Factory).
type Model interface {
	Name() string
	Next() Fault
}

// Channel applies a fault model to the serialized frames of one
// connection. Corruption flips exactly one payload bit per corrupted
// frame: the minimal damage a receiver must detect, and one a CRC32
// checksum detects with certainty.
type Channel struct {
	model Model
	rng   *rand.Rand
	stats *Stats
}

// New builds a channel around a fault model. The seed drives corruption
// bit positions; stats may be shared across channels (nil allocates a
// private one).
func New(model Model, seed int64, stats *Stats) *Channel {
	if stats == nil {
		stats = &Stats{}
	}
	return &Channel{model: model, rng: rand.New(rand.NewSource(seed)), stats: stats}
}

// Transmit passes one serialized frame through the channel. payloadStart
// is the offset where the frame's payload begins (the header is never
// damaged: link-layer headers carry their own FEC in real systems, and
// recovery needs the slot/next-index fields to be trustworthy). It returns
// false when the channel drops the frame; on corruption the frame is
// modified in place.
func (c *Channel) Transmit(frame []byte, payloadStart int) bool {
	return c.TransmitFault(frame, payloadStart) != Drop
}

// TransmitFault is Transmit reporting the fault the channel assigned to
// the frame, so instrumented transmit paths (internal/obs) can count
// deliveries, drops and corruptions separately. A frame whose corruption
// could not land (empty payload) reports Deliver.
func (c *Channel) TransmitFault(frame []byte, payloadStart int) Fault {
	c.stats.sent.Add(1)
	switch c.model.Next() {
	case Drop:
		c.stats.dropped.Add(1)
		return Drop
	case Corrupt:
		if payloadStart < len(frame) {
			payload := frame[payloadStart:]
			bit := c.rng.Intn(len(payload) * 8)
			payload[bit/8] ^= 1 << uint(bit%8)
			c.stats.corrupted.Add(1)
			return Corrupt
		}
	}
	return Deliver
}

// Stats aggregates frame counters across the channels (connections) of one
// fault configuration. Safe for concurrent use: the server transmit path
// is one goroutine per connection.
type Stats struct {
	sent, dropped, corrupted atomic.Int64
}

// Snapshot is a consistent-enough copy of the counters for reporting.
type Snapshot struct {
	Sent, Dropped, Corrupted, Delivered int64
}

// Snapshot reads the current counter values.
func (s *Stats) Snapshot() Snapshot {
	sent, dropped, corrupted := s.sent.Load(), s.dropped.Load(), s.corrupted.Load()
	return Snapshot{Sent: sent, Dropped: dropped, Corrupted: corrupted, Delivered: sent - dropped}
}

func (s Snapshot) String() string {
	pct := func(n int64) float64 {
		if s.Sent == 0 {
			return 0
		}
		return 100 * float64(n) / float64(s.Sent)
	}
	return fmt.Sprintf("sent %d, dropped %d (%.2f%%), corrupted %d (%.2f%%)",
		s.Sent, s.Dropped, pct(s.Dropped), s.Corrupted, pct(s.Corrupted))
}
