package core

import (
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/wire"
)

func TestEncodeFillsPacketsPerLayout(t *testing.T) {
	tree, _, _ := buildVoronoiTree(t, 180, 91)
	for _, capacity := range []int{64, 256, 2048} {
		paged, err := tree.Page(wire.DTreeParams(capacity))
		if err != nil {
			t.Fatal(err)
		}
		packets, err := paged.EncodePackets()
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if len(packets) != paged.IndexPackets() {
			t.Fatalf("capacity %d: %d packets, layout says %d", capacity, len(packets), paged.IndexPackets())
		}
		for k, pkt := range packets {
			if len(pkt) != capacity {
				t.Fatalf("packet %d has %d bytes", k, len(pkt))
			}
			// Bytes beyond the occupied prefix must be zero padding.
			for i := paged.Layout.Occupied[k]; i < capacity; i++ {
				if pkt[i] != 0 {
					t.Fatalf("capacity %d packet %d: non-zero padding at %d", capacity, k, i)
				}
			}
		}
	}
}

// TestClientLocateMatchesPaged: the wire client decoding the encoded
// packets answers every query with the arena's region and packet trace.
func TestClientLocateMatchesPaged(t *testing.T) {
	tree, _, area := buildVoronoiTree(t, 250, 92)
	for _, capacity := range []int{64, 128, 512, 2048} {
		paged, err := tree.Page(wire.DTreeParams(capacity))
		if err != nil {
			t.Fatal(err)
		}
		fp := paged.Flatten()
		packets, err := fp.EncodePackets()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(93))
		var buf []int
		for i := 0; i < 4000; i++ {
			p := geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
			var want int
			want, buf = fp.LocateInto(p, buf)
			got, gotTrace, err := ClientLocate(packets, capacity, p)
			if err != nil {
				t.Fatalf("capacity %d: %v", capacity, err)
			}
			if got != want || !sameTrace(gotTrace, buf) {
				t.Fatalf("capacity %d query %v: client (%d, %v), arena (%d, %v)", capacity, p, got, gotTrace, want, buf)
			}
		}
	}
}

// nearRegionBoundary reports whether p lies within tol of region id's
// boundary (or inside it) — the float32 ambiguity zone.
func nearRegionBoundary(tree *Tree, p geom.Point, id int, tol float64) bool {
	if id < 0 || id >= tree.Sub.N() {
		return false
	}
	poly := tree.Sub.Regions[id].Poly
	if poly.Contains(p) {
		return true
	}
	for _, e := range poly.Edges() {
		// Distance from p to segment e.
		ab := e.B.Sub(e.A)
		tt := p.Sub(e.A).Dot(ab) / ab.Dot(ab)
		if tt < 0 {
			tt = 0
		} else if tt > 1 {
			tt = 1
		}
		if p.Dist(geom.Lerp(e.A, e.B, tt)) <= tol {
			return true
		}
	}
	return false
}

func TestClientLocateEmptyIndex(t *testing.T) {
	id, trace, err := ClientLocate(nil, 64, geom.Pt(1, 1))
	if err != nil || id != 0 || trace != nil {
		t.Errorf("empty index: %d %v %v", id, trace, err)
	}
}

func TestClientLocateCorruptIndex(t *testing.T) {
	// A packet of garbage pointing at itself must hit the hop guard or a
	// read error, never loop forever.
	pkt := make([]byte, 64)
	if _, _, err := ClientLocate([][]byte{pkt}, 64, geom.Pt(1, 1)); err == nil {
		t.Skip("all-zero packet decodes as a degenerate node; acceptable")
	}
}

func TestEncodeRunningExample(t *testing.T) {
	// End-to-end on the paper's running example at a capacity where the
	// whole tree fits one packet.
	tree, _, _ := buildVoronoiTree(t, 4, 94)
	paged, err := tree.Page(wire.DTreeParams(2048))
	if err != nil {
		t.Fatal(err)
	}
	packets, err := paged.EncodePackets()
	if err != nil {
		t.Fatal(err)
	}
	if len(packets) != 1 {
		t.Fatalf("4-region tree should fit one 2 KB packet, got %d", len(packets))
	}
}
