package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"airindex/internal/broadcast"
	"airindex/internal/channel"
)

// txBufSize is the transmit span: the write-buffer size shared by the live
// server and Program.Transmit, so the loss experiments and the live server
// measure the same I/O batching. One write syscall carries ~256 KB of
// frames; at 64 KB the read and write syscalls took over half the CPU of
// a loopback point query (EXPERIMENTS.md, "Span-batched air path").
const txBufSize = 256 << 10

// ErrServerClosed is returned by Serve after Close or Shutdown, so callers
// can tell a deliberate stop from an accept failure (net/http's
// ErrServerClosed convention).
var ErrServerClosed = errors.New("stream: server closed")

// Program is the broadcast content: the encoded index packets, the (1, m)
// schedule that orders them with the data, and the global ids the data
// payloads carry.
type Program struct {
	Capacity     int
	IndexPackets [][]byte
	Sched        *broadcast.Schedule
	// IDs, when set, holds each bucket's global data-instance id (a fabric
	// shard's local bucket -> global numbering). Every data payload carries
	// its bucket and packet ids in bytes [0,8), and with IDs the bucket's
	// global id in bytes [8,12); the rest is zero (putData).
	IDs []int

	renderOnce sync.Once
	rendered   *renderedCycle
	renderErr  error
}

// setRendered installs a pre-built rendered cycle (the incremental render
// path builds it against the previous generation); a later Rendered call
// returns it without re-rendering. No-op if the program already rendered.
func (p *Program) setRendered(rc *renderedCycle) {
	p.renderOnce.Do(func() { p.rendered = rc })
}

// Rendered returns the program's immutable rendered cycle — its payload-CRC
// tables — building it on first use. It is safe for concurrent use by any
// number of connections. Mutating Capacity, IndexPackets, Sched or IDs
// after the first transmission is not supported.
func (p *Program) Rendered() (*renderedCycle, error) {
	p.renderOnce.Do(func() {
		p.rendered, p.renderErr = renderCycle(p, nil)
	})
	return p.rendered, p.renderErr
}

// RenderedSize reports the rendered cycle's frame count and the bytes it
// pins beyond the program's index packets (its CRC tables), rendering it
// on first use (startup diagnostics).
func (p *Program) RenderedSize() (frames, bytes int, err error) {
	rc, err := p.Rendered()
	if err != nil {
		return 0, 0, err
	}
	return rc.cycleLen(), rc.sizeBytes(), nil
}

// Validate checks internal consistency.
func (p *Program) Validate() error {
	if p.Capacity < 8 {
		return fmt.Errorf("stream: capacity %d cannot hold the 8-byte data stamp", p.Capacity)
	}
	if p.Sched == nil {
		return fmt.Errorf("stream: nil schedule")
	}
	if p.IDs != nil && len(p.IDs) != p.Sched.NumBuckets {
		return fmt.Errorf("stream: %d global ids for %d buckets", len(p.IDs), p.Sched.NumBuckets)
	}
	if len(p.IndexPackets) == 0 {
		return fmt.Errorf("stream: a broadcast program needs at least one index packet")
	}
	if len(p.IndexPackets) != p.Sched.IndexPackets {
		return fmt.Errorf("stream: %d index packets, schedule says %d", len(p.IndexPackets), p.Sched.IndexPackets)
	}
	if p.Sched.BucketPackets > MaxBucketPackets {
		// DataSeq keeps the packet-in-bucket in 8 bits; a larger bucket
		// would silently alias packets MaxBucketPackets apart on the air.
		return fmt.Errorf("stream: %d packets per data bucket exceeds the wire format's limit of %d (packet-in-bucket is an 8-bit field)",
			p.Sched.BucketPackets, MaxBucketPackets)
	}
	for k, pkt := range p.IndexPackets {
		if len(pkt) != p.Capacity {
			return fmt.Errorf("stream: index packet %d has %d bytes", k, len(pkt))
		}
	}
	return nil
}

// liveProgram pairs a program with the generation number it broadcasts
// under. The pair is published atomically so connection goroutines always
// see a consistent (program, generation) and never a torn swap.
type liveProgram struct {
	prog *Program
	gen  uint32
}

// Server broadcasts a Program. Each connection receives its own contiguous
// frame stream beginning at the server's current slot position when it
// tuned in — like switching on a radio — and advances independently, so a
// slow client does not stall a fast one (a real channel would drop frames
// instead; per-connection pacing keeps the protocol identical from the
// client's point of view).
//
// The program can be replaced while serving (Swap): each connection picks
// up the new program at its next cycle boundary, keeps the absolute slot
// numbering running uninterrupted, and stamps every frame with the
// program's generation so clients detect the change.
type Server struct {
	ln net.Listener

	// SlotDuration throttles the broadcast to real time; zero streams at
	// full speed (useful for tests and simulations).
	SlotDuration time.Duration

	// StartSlot, when set, chooses the first slot of each new connection
	// (tests and demos inject randomness or fixed phases here).
	StartSlot func() int

	// Channel, when set, is called once per connection to build the
	// simulated lossy channel (internal/channel) every outgoing frame of
	// that connection passes through; channel.Spec.Factory is the usual
	// source. Dropped frames still consume their slot — the client sees a
	// gap in the slot numbering, as on a real fading channel.
	Channel func() *channel.Channel

	// WriteTimeout bounds every underlying connection write. A receiver
	// that cannot drain the broadcast for this long is evicted (counted in
	// Metrics.Evictions) instead of pinning a goroutine and its buffers forever.
	// Zero disables the deadline.
	WriteTimeout time.Duration

	// Logf, when set, receives lifecycle diagnostics: recovered connection
	// panics and slow-client evictions.
	Logf func(format string, args ...any)

	cur    atomic.Pointer[liveProgram]
	swapMu sync.Mutex // serializes Swap against Swap and against shutdown

	start    time.Time
	closed   atomic.Bool // hard stop: connections exit at the next slot
	draining atomic.Bool // soft stop: connections exit at the next cycle boundary
	wg       sync.WaitGroup
	metrics  *Metrics

	mu    sync.Mutex
	conns map[net.Conn]bool
}

// NewServer wraps a listener. Serve must be called to start accepting.
// The initial program broadcasts as generation 1.
func NewServer(ln net.Listener, prog *Program) (*Server, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	s := &Server{ln: ln, start: time.Now(), conns: make(map[net.Conn]bool), metrics: NewMetrics()}
	s.cur.Store(&liveProgram{prog: prog, gen: 1})
	return s, nil
}

// Swap validates, renders, and publishes a new broadcast program, returning
// the generation it will broadcast under. Every connection switches at its
// next cycle boundary — the first slot of the new program is an index-copy
// start, so the trailing frames of the old cycle still point at a valid
// index root. The packet capacity must not change across a swap: clients
// size their reads from the probe frame and cannot follow a capacity
// change.
func (s *Server) Swap(next *Program) (uint32, error) {
	if err := next.Validate(); err != nil {
		return 0, err
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed.Load() || s.draining.Load() {
		return 0, ErrServerClosed
	}
	cur := s.cur.Load()
	if next.Capacity != cur.prog.Capacity {
		return 0, fmt.Errorf("stream: swap changes packet capacity %d -> %d; live clients cannot follow", cur.prog.Capacity, next.Capacity)
	}
	// Render before publishing so connections never pay the build cost on
	// their hot path (and a render failure leaves the old program live).
	if _, err := next.Rendered(); err != nil {
		return 0, err
	}
	gen := cur.gen + 1
	s.cur.Store(&liveProgram{prog: next, gen: gen})
	s.metrics.Swaps.Inc()
	return gen, nil
}

// Generation returns the generation of the currently published program.
func (s *Server) Generation() uint32 { return s.cur.Load().gen }

// Metrics returns the server's observability counters (never nil).
func (s *Server) Metrics() *Metrics { return s.metrics }

// UseMetrics replaces the server's metric set — the multi-channel fabric
// points every shard server at one shared registry with per-shard name
// prefixes (NewMetricsIn). Must be called before Serve; counts already
// recorded on the default set are not migrated.
func (s *Server) UseMetrics(m *Metrics) {
	if m != nil {
		s.metrics = m
	}
}

// RecoveredPanics reports how many connection goroutines panicked and were
// contained without taking the server down.
func (s *Server) RecoveredPanics() int64 { return s.metrics.ConnPanics.Load() }

// currentSlot is the server's shared broadcast clock: the slot a radio
// tuning in right now would first hear. It is derived from a single
// monotonic source — wall time since the server started over SlotDuration —
// so concurrent joiners agree on the channel position regardless of how far
// individual connection goroutines have streamed ahead. Without real-time
// pacing there is no meaningful shared position (every connection streams
// at its own full speed), so joiners deterministically start at slot 0.
func (s *Server) currentSlot() int {
	if s.SlotDuration <= 0 {
		return 0
	}
	return int(time.Since(s.start) / s.SlotDuration)
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// stopping reports whether the server has begun any form of shutdown.
func (s *Server) stopping() bool { return s.closed.Load() || s.draining.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts connections until the server is closed or shut down, in
// which case it returns ErrServerClosed; every connection receives the
// broadcast starting from the shared current slot. A panic in one
// connection's stream is recovered and counted — one poisoned connection
// cannot take the broadcast down for everyone else.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.stopping() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.metrics.ConnsTotal.Inc()
		s.metrics.ConnsActive.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.metrics.ConnsActive.Add(-1)
			}()
			defer func() {
				if r := recover(); r != nil {
					s.metrics.ConnPanics.Inc()
					s.logf("stream: connection %v: recovered panic: %v", conn.RemoteAddr(), r)
				}
			}()
			s.streamTo(conn)
		}()
	}
}

// deadlineWriter arms a write deadline before every underlying write, so a
// receiver that stops draining surfaces os.ErrDeadlineExceeded instead of
// blocking the connection goroutine forever.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if w.timeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout)) //nolint:errcheck
	}
	return w.conn.Write(p)
}

// streamTo broadcasts frames to one connection until it errors or the
// server stops. Frames are synthesized in runs straight into the
// connection's write buffer from the program and its shared CRC tables —
// the transmit path performs no per-frame allocation. Writes go out in
// spans (one syscall per ~256 KB, txBufSize); with real-time pacing every
// run is one frame, flushed on its slot tick. The wire counters are
// published on every flush and on every exit.
//
// Every cycle boundary starts a run; there the goroutine checks for a
// swapped program and, when draining, exits — so a graceful shutdown always
// completes the cycle in flight, and a swap never tears an index copy or a
// bucket in half.
func (s *Server) streamTo(conn net.Conn) {
	lp := s.cur.Load()
	var slot int
	if s.StartSlot != nil {
		slot = s.StartSlot()
	} else {
		slot = s.currentSlot()
	}
	var ch *channel.Channel
	if s.Channel != nil {
		ch = s.Channel()
	}
	tx, err := lp.prog.transmitter(&deadlineWriter{conn: conn, timeout: s.WriteTimeout}, ch, s.metrics)
	if err != nil {
		return
	}
	defer tx.publish()
	cycle := lp.prog.Sched.CycleLen()
	// Content position is slot-contentBase: zero for a fresh connection
	// (frame content at absolute slot s is s % cycle, as always), rebased
	// to the swap slot when a new program takes over mid-connection.
	contentBase := 0
	limit := math.MaxInt
	if s.SlotDuration > 0 {
		limit = 1
	}
	for !s.closed.Load() {
		if (slot-contentBase)%cycle == 0 {
			if s.draining.Load() {
				break
			}
			if next := s.cur.Load(); next.gen != lp.gen {
				if err := tx.retune(next.prog); err != nil {
					return
				}
				lp = next
				cycle = lp.prog.Sched.CycleLen()
				contentBase = slot
			}
		}
		n, err := tx.transmitRun(slot, slot-contentBase, limit, lp.gen)
		if err != nil {
			s.noteWriteError(conn, err)
			return
		}
		slot += n
		if s.SlotDuration > 0 {
			if err := tx.flush(); err != nil {
				s.noteWriteError(conn, err)
				return
			}
			time.Sleep(s.SlotDuration)
		}
	}
	tx.flush() //nolint:errcheck
}

// noteWriteError classifies a failed connection write: a deadline
// expiration is a slow-client eviction worth counting; anything else is an
// ordinary disconnect.
func (s *Server) noteWriteError(conn net.Conn, err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		s.metrics.Evictions.Inc()
		s.logf("stream: evicted slow client %v: %v", conn.RemoteAddr(), err)
	}
}

// Transmit streams the program's frames to w, beginning at startSlot and
// passing every frame through ch (nil = perfect channel), until the writer
// fails — the listener-less analogue of Server for net.Pipe tests and the
// loss-rate experiments. Frames carry generation 1, matching a freshly
// started server. Closing the pipe is how callers stop it.
func (p *Program) Transmit(w io.Writer, startSlot int, ch *channel.Channel) error {
	return p.TransmitObserved(w, startSlot, ch, nil)
}

// TransmitObserved is Transmit recording frame counters into m (nil
// allocates a private, unread set), so listener-less experiments report
// the same wire-side metrics a live server would. The counters are
// published per flush and are exact once it returns.
func (p *Program) TransmitObserved(w io.Writer, startSlot int, ch *channel.Channel, m *Metrics) error {
	tx, err := p.transmitter(w, ch, m)
	if err != nil {
		return err
	}
	defer tx.publish()
	for slot := startSlot; ; {
		n, err := tx.transmitRun(slot, slot, math.MaxInt, 1)
		if err != nil {
			return err
		}
		slot += n
	}
}

// Shutdown stops accepting and drains gracefully: every connection streams
// on to its next cycle boundary — completing the index copy or bucket in
// flight — flushes, and exits. If ctx expires before the drain completes,
// the stragglers are severed immediately and ctx.Err() is returned; a
// clean drain returns nil. Serve returns ErrServerClosed in either case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	lnErr := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.closed.Store(true)
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.closed.Store(true)
	if err == nil && lnErr != nil && !errors.Is(lnErr, net.ErrClosed) {
		err = lnErr
	}
	return err
}

// Close stops accepting, severs every active stream immediately, and waits
// for the per-connection goroutines to exit. Safe to call after Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.closed.Store(true)
	err := s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
