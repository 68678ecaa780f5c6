package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

// FuzzFlatSnapshot throws arbitrary bytes at the snapshot loader. Each input
// gets a valid trailing CRC first, so mutations reach the header checks and
// the packet decoder instead of stopping at the checksum. The contract under
// test: LoadSnapshot either rejects the input with an error or returns an
// index that answers queries in range and re-encodes to the input's own
// bytes, without panicking or walking out of bounds.
func FuzzFlatSnapshot(f *testing.F) {
	for _, n := range []int{1, 4, 40} {
		sub, sites := testutil.RandomVoronoi(f, n, int64(300+n))
		tree, err := Build(sub)
		if err != nil {
			f.Fatal(err)
		}
		adj, err := BuildAdjacency(sub, sub.Area, sites)
		if err != nil {
			f.Fatal(err)
		}
		for _, capacity := range []int{64, 512} {
			paged, err := tree.Page(wire.DTreeParams(capacity))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(paged.Flatten().Snapshot())
			// The same arena with the adjacency table attached seeds files
			// with an appendix.
			fp := paged.Flatten()
			if err := fp.Flat.SetAdjacency(adj); err != nil {
				f.Fatal(err)
			}
			f.Add(fp.Snapshot())
		}
	}
	f.Add([]byte(snapshotMagic))
	f.Add(make([]byte, snapHeaderSize+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = binary.LittleEndian.AppendUint32(bytes.Clone(data[:len(data)-4]), crc32.Checksum(data[:len(data)-4], snapCRC))
		}
		fp, err := LoadSnapshot(data)
		if err != nil {
			return
		}
		for _, p := range []geom.Point{geom.Pt(0, 0), geom.Pt(5000, 5000), geom.Pt(-1e9, 1e9)} {
			id, trace := fp.LocateInto(p, nil)
			if id < 0 || id >= fp.Flat.N {
				t.Fatalf("loaded snapshot located out-of-range region %d", id)
			}
			for _, pk := range trace {
				if pk < 0 || pk >= fp.IndexPackets() {
					t.Fatalf("loaded snapshot traced out-of-range packet %d", pk)
				}
			}
		}
		// A loaded table passed its validation: every adjacency walk must
		// stay in bounds and terminate.
		if adj := fp.Flat.Adjacency(); adj != nil {
			center := adj.Area.Center()
			for _, seed := range []int{0, adj.N() - 1} {
				adj.Contains(seed, center)
				for _, id := range adj.KNN(seed, center, 3) {
					if id < 0 || int(id) >= adj.N() {
						t.Fatalf("loaded adjacency walked to out-of-range region %d", id)
					}
				}
				w := geom.Rect{MinX: center.X - 100, MinY: center.Y - 100, MaxX: center.X + 100, MaxY: center.Y + 100}
				for _, id := range adj.Window(seed, w) {
					if id < 0 || int(id) >= adj.N() {
						t.Fatalf("loaded adjacency windowed out-of-range region %d", id)
					}
				}
			}
		}
		if again := fp.Snapshot(); !bytes.Equal(again, data) {
			t.Fatalf("loaded snapshot re-encodes to %d other bytes", len(again))
		}
	})
}
