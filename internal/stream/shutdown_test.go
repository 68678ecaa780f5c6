package stream

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"airindex/internal/channel"
	"airindex/internal/geom"
	"airindex/internal/testutil"
)

// newLifecycleServer builds a small live server with configure applied
// before Serve starts accepting, returning the Serve exit channel.
func newLifecycleServer(t *testing.T, configure func(*Server)) (*Server, chan error) {
	t.Helper()
	sub, _ := testutil.RandomVoronoi(t, 30, 7001)
	prog, err := NewDTreeProgram(sub, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ln, prog)
	if err != nil {
		t.Fatal(err)
	}
	srv.StartSlot = func() int { return 0 }
	if configure != nil {
		configure(srv)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	t.Cleanup(func() { srv.Close() })
	return srv, serveErr
}

func waitServe(t *testing.T, serveErr chan error) error {
	t.Helper()
	select {
	case err := <-serveErr:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
		return nil
	}
}

// TestServeReturnsErrServerClosed: a deliberate Close must be
// distinguishable from an accept failure, so operators can exit 0.
func TestServeReturnsErrServerClosed(t *testing.T) {
	srv, serveErr := newLifecycleServer(t, nil)
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := waitServe(t, serveErr); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// Close after Close stays clean (idempotent teardown paths).
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestShutdownDrainsAtCycleBoundary: a graceful Shutdown lets every
// connection finish its broadcast cycle — the receiver sees a whole number
// of cycles and then a clean EOF, never a torn index copy.
func TestShutdownDrainsAtCycleBoundary(t *testing.T) {
	srv, serveErr := newLifecycleServer(t, nil)
	cycle := srv.Program().Sched.CycleLen()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Count frames in the background; the server streams full speed, so
	// shutting down shortly after connect lands mid-cycle with certainty.
	frames := make(chan int, 1)
	go func() {
		n := 0
		r := NewClient(conn, 256)
		for {
			if _, _, _, err := r.advance(nil, never); err != nil {
				frames <- n
				return
			}
			n++
		}
	}()
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := waitServe(t, serveErr); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	select {
	case n := <-frames:
		if n == 0 || n%cycle != 0 {
			t.Fatalf("connection drained after %d frames; want a positive multiple of the cycle length %d", n, cycle)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver never saw EOF after drain")
	}
}

// TestShutdownForceClosesOnDeadline: a receiver that refuses to drain
// cannot hold a graceful shutdown hostage — the context deadline severs it.
func TestShutdownForceClosesOnDeadline(t *testing.T) {
	srv, serveErr := newLifecycleServer(t, nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Never read: the server's writes back up and its goroutine blocks, so
	// the drain can only finish by force. The wire counters are published
	// per flush, so once they stop growing the connection's writer is
	// stuck on backpressure; a fixed sleep may not fill the socket buffers
	// on a slow machine, and the drain would then reach a cycle boundary.
	awaitWriteBackpressure(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown returned %v, want DeadlineExceeded", err)
	}
	if err := waitServe(t, serveErr); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// awaitWriteBackpressure waits until the server's BytesWritten has held
// still for a while after growing: every connection is blocked writing.
func awaitWriteBackpressure(t *testing.T, srv *Server) {
	t.Helper()
	const still = 100 * time.Millisecond
	deadline := time.Now().Add(30 * time.Second)
	last, since := srv.Metrics().BytesWritten.Load(), time.Now()
	for last == 0 || time.Since(since) < still {
		if time.Now().After(deadline) {
			t.Fatalf("server writes never stalled (%d bytes written)", last)
		}
		time.Sleep(5 * time.Millisecond)
		if n := srv.Metrics().BytesWritten.Load(); n != last {
			last, since = n, time.Now()
		}
	}
}

// TestSlowClientEviction: with a write deadline armed, a stalled receiver
// is evicted and counted instead of pinning its goroutine forever.
func TestSlowClientEviction(t *testing.T) {
	srv, _ := newLifecycleServer(t, func(s *Server) {
		s.WriteTimeout = 50 * time.Millisecond
	})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Never read; once the TCP buffers fill, every further write must hit
	// the deadline and evict us.
	deadline := time.Now().Add(15 * time.Second)
	for srv.Metrics().Evictions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled client was never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The broadcast must still be healthy for well-behaved clients.
	client, err := Dial(srv.Addr().String(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query(geom.Pt(5000, 5000)); err != nil {
		t.Fatalf("query after eviction: %v", err)
	}
}

// panicModel is a channel fault model that panics when it reaches frame
// zero of its countdown — simulating a poisoned per-connection middleware.
type panicModel struct{ after int }

func (m *panicModel) Name() string { return "panic" }
func (m *panicModel) Next() channel.Fault {
	if m.after <= 0 {
		panic("injected middleware failure")
	}
	m.after--
	return channel.Deliver
}

// TestConnectionPanicIsContained: a panic inside one connection's transmit
// path is recovered and counted; the server keeps serving everyone else.
func TestConnectionPanicIsContained(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	srv, _ := newLifecycleServer(t, func(s *Server) {
		s.Channel = func() *channel.Channel {
			if first.CompareAndSwap(true, false) {
				return channel.New(&panicModel{after: 3}, 1, nil)
			}
			return nil
		}
	})

	// The first connection hits the poisoned middleware after 3 frames.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("poisoned connection read: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for srv.RecoveredPanics() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("panic was never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server survives: a second client still gets correct answers.
	sub, _ := testutil.RandomVoronoi(t, 30, 7001) // same seed as the fixture
	client, err := Dial(srv.Addr().String(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	p := geom.Pt(2500, 7500)
	res, err := client.Query(p)
	if err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
	if want := sub.Locate(p); res.Bucket != want && !sub.Regions[res.Bucket].Poly.Contains(p) {
		t.Fatalf("bucket %d, want %d", res.Bucket, want)
	}
}

// Program returns the currently published program.
func (s *Server) Program() *Program { return s.cur.Load().prog }
