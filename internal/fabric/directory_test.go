package fabric

import (
	"bytes"
	"math"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/stream"
)

// TestDirectoryChannelCountMismatch serves a two-channel fabric's programs
// to receivers holding a different number of channels. The directory on the
// air then routes to channels the receiver does not hold, or leaves some of
// its channels unreachable, so both the one-shot query and the continuous
// session must refuse it with an error instead of answering or panicking.
// A receiver of two channels without any directory must refuse too.
func TestDirectoryChannelCountMismatch(t *testing.T) {
	const capacity = 128
	ds := dataset.Uniform(200, 5)
	f, err := Build(ds.Area, ds.Sites, 2, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	progs := f.Programs()
	q := stream.ContinuousQuery{WindowW: 500, WindowH: 500, K: 2}
	for _, held := range [][]*stream.Program{progs[:1], {progs[0], progs[1], progs[0]}} {
		for ch, rect := range f.Rects {
			p := rect.Center()
			if _, err := pipeAir(t, held, capacity).Query(p); err == nil {
				t.Errorf("%d-channel receiver answered a query owned by channel %d of 2", len(held), ch)
			}
			sess := NewContinuous(pipeAir(t, held, capacity), stream.ModeIncremental, q)
			if _, err := sess.Step(p); err == nil {
				t.Errorf("%d-channel session stepped at a point owned by channel %d of 2", len(held), ch)
			}
		}
	}

	// Only a lone channel may go without a directory: a two-channel
	// session tuned to plain single-channel broadcasts cannot route.
	single, err := NewSwapper(ds.Area, ds.Sites, 1, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	plain := []*stream.Program{single.Programs()[0], single.Programs()[0]}
	if _, err := NewContinuous(pipeAir(t, plain, capacity), stream.ModeIncremental, q).Step(ds.Area.Center()); err == nil {
		t.Error("two-channel session stepped over broadcasts without a directory")
	}
}

// FuzzDecodeDirectory feeds arbitrary bytes, cut into packets of an
// arbitrary capacity, to the directory decoder. It must never panic; every
// directory it accepts must route any point to a channel below S, and must
// survive an EncodePackets/DecodeDirectory round trip unchanged.
func FuzzDecodeDirectory(f *testing.F) {
	ds := dataset.Uniform(120, 9)
	for _, S := range []int{1, 3, 16} {
		dir, _, _, err := Partition(ds.Area, ds.Sites, S)
		if err != nil {
			f.Fatal(err)
		}
		for _, capacity := range []int{32, 128} {
			pkts, err := dir.EncodePackets(capacity, S-1)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint16(capacity), bytes.Join(pkts, nil), 5000.0, 5000.0)
		}
	}
	f.Add(uint16(64), []byte("FD\x01\x00\x00\x00\x01\x00\x01\x00\x01\x00"), math.NaN(), math.Inf(-1))
	f.Fuzz(func(t *testing.T, capacity uint16, data []byte, x, y float64) {
		if capacity == 0 || len(data) == 0 {
			return
		}
		var pkts [][]byte
		for len(data) > 0 {
			n := min(int(capacity), len(data))
			pkts, data = append(pkts, data[:n]), data[n:]
		}
		DirectoryPacketCount(pkts[0]) //nolint:errcheck // must not panic
		dir, err := DecodeDirectory(pkts)
		if err != nil {
			return
		}
		for _, p := range []geom.Point{geom.Pt(x, y), geom.Pt(y, x), {}, geom.Pt(math.NaN(), math.Inf(1))} {
			if ch := dir.Route(p); ch < 0 || ch >= dir.S {
				t.Fatalf("route(%v) = %d, directory has %d channels", p, ch, dir.S)
			}
		}
		again, err := dir.EncodePackets(int(capacity), dir.Self)
		if err != nil {
			return // capacity below the directory minimum
		}
		back, err := DecodeDirectory(again)
		if err != nil {
			t.Fatalf("re-encoded directory rejected: %v", err)
		}
		if back.Self != dir.Self || back.S != dir.S || len(back.Nodes) != len(dir.Nodes) {
			t.Fatalf("round trip header %d/%d/%d, want %d/%d/%d", back.Self, back.S, len(back.Nodes), dir.Self, dir.S, len(dir.Nodes))
		}
		for i, nd := range dir.Nodes {
			got := back.Nodes[i]
			if got.Axis != nd.Axis || math.Float64bits(got.Split) != math.Float64bits(nd.Split) ||
				got.Left != nd.Left || got.Right != nd.Right || got.Channel != nd.Channel {
				t.Fatalf("round trip node %d: %+v, want %+v", i, got, nd)
			}
		}
	})
}

// Query resolves the data instance for p, entering on the channel that
// answered the previous query (channel 0 initially).
func (c *Client) Query(p geom.Point) (Result, error) {
	return c.QueryFrom(p, c.entry)
}
