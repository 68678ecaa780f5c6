package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/stream"
)

// air is one live broadcast on loopback TCP: S servers (one per channel),
// the swapper that publishes to them, and one client connection per
// channel with a tap under it. S=1 runs a single-channel stream.Swapper;
// S>1 runs a sharded fabric.Swapper with the adjacency appendix.
type air struct {
	single *stream.Swapper
	fab    *fabric.Swapper

	srvs    []*stream.Server
	served  []chan error
	conns   []net.Conn
	taps    []*tap
	clients []*stream.Client
}

// startAir builds the initial broadcast, serves every channel on its own
// loopback listener and tunes one client in per channel. It returns the
// set-up time: from the start of the build until every client has read its
// first frame.
func startAir(ds dataset.Dataset, shards, capacity int) (*air, time.Duration, error) {
	start := time.Now()
	a := &air{}
	var progs []*stream.Program
	if shards == 1 {
		sw, err := stream.NewSwapper(ds.Area, ds.Sites, capacity, 0)
		if err != nil {
			return nil, 0, err
		}
		a.single = sw
		progs = []*stream.Program{sw.Program()}
	} else {
		sw, err := fabric.NewSwapper(ds.Area, ds.Sites, shards, capacity, fabric.Options{Adjacency: true})
		if err != nil {
			return nil, 0, err
		}
		a.fab = sw
		progs = sw.Programs()
	}
	for ch, prog := range progs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			a.close()
			return nil, 0, err
		}
		srv, err := stream.NewServer(ln, prog)
		if err != nil {
			ln.Close()
			a.close()
			return nil, 0, err
		}
		if a.single != nil {
			a.single.Bind(srv)
		} else {
			a.fab.Bind(ch, srv)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		a.srvs = append(a.srvs, srv)
		a.served = append(a.served, done)
	}
	for _, srv := range a.srvs {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			a.close()
			return nil, 0, err
		}
		t := newTap(conn)
		a.conns = append(a.conns, conn)
		a.taps = append(a.taps, t)
		a.clients = append(a.clients, stream.NewClient(t, capacity))
	}
	// The first frame on every channel ends set-up.
	for ch, c := range a.clients {
		var res stream.Result
		if err := c.Probe(&res); err != nil {
			a.close()
			return nil, 0, fmt.Errorf("first frame on channel %d: %w", ch, err)
		}
	}
	return a, time.Since(start), nil
}

// gens returns the generation each channel's swapper has published last.
func (a *air) gens() []uint32 {
	if a.single != nil {
		return []uint32{a.single.Current().Gen}
	}
	out := make([]uint32, a.fab.Shards())
	for ch := range out {
		out[ch] = a.fab.Current(ch).Gen
	}
	return out
}

// serverTotals sums the wire-side counters of every channel's server.
func (a *air) serverTotals() (frames, bytes, evictions int64) {
	for _, s := range a.srvs {
		m := s.Metrics()
		frames += m.FramesWritten.Load()
		bytes += m.BytesWritten.Load()
		evictions += m.Evictions.Load()
	}
	return frames, bytes, evictions
}

// receiverTotals sums what every channel's receiver read, as its tap saw it.
func (a *air) receiverTotals() (frames, bytes int64) {
	for _, t := range a.taps {
		f, b := t.counts()
		frames += f
		bytes += b
	}
	return frames, bytes
}

// awaitGens keeps every channel's receiver reading until it has seen the
// given generation (or later), or until timeout. It is how the drain makes
// the last cuts reach a receiver after the measured window; the reads are
// not counted as queries.
func (a *air) awaitGens(want []uint32, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for ch, g := range want {
		ok, err := a.follow(ch, g, deadline)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("channel %d: generation %d not on air after %v (receiver at %d)", ch, g, timeout, a.taps[ch].seen())
		}
	}
	return nil
}

// follow keeps channel ch's receiver reading until it has seen generation
// gen (or later) or the deadline passes, and reports whether it got there.
// The receiver dozes from one index copy to the next (header-only reads);
// a swap surfaces as ErrStaleGeneration. The sharded workload uses it
// between steps to keep the receivers of channels the step did not touch
// tuned in, so a cut on such a channel is seen on air when the server
// delivers it, not when the moving client next happens to need that channel.
func (a *air) follow(ch int, gen uint32, deadline time.Time) (bool, error) {
	c := a.clients[ch]
	for a.taps[ch].seen() < gen {
		if time.Now().After(deadline) {
			return false, nil
		}
		var res stream.Result
		if err := c.Probe(&res); err != nil {
			return false, fmt.Errorf("channel %d: %w", ch, err)
		}
		if a.taps[ch].seen() >= gen {
			break
		}
		if _, err := c.FetchIndexPackets(&res, 0, 1); err != nil && !errors.Is(err, stream.ErrStaleGeneration) {
			return false, fmt.Errorf("channel %d: %w", ch, err)
		}
	}
	return true, nil
}

// close hangs up every client connection, stops every server and waits for
// their accept loops to return.
func (a *air) close() error {
	for _, c := range a.conns {
		c.Close()
	}
	var first error
	for i, s := range a.srvs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
		if err := <-a.served[i]; err != nil && !errors.Is(err, stream.ErrServerClosed) && first == nil {
			first = err
		}
	}
	return first
}
