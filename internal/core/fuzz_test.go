package core

import (
	"testing"

	"airindex/internal/geom"
	"airindex/internal/wire"
)

// FuzzClientLocate decodes point queries from mutated packet bytes: the
// client must never panic or loop, whatever the corruption.
func FuzzClientLocate(f *testing.F) {
	tree, _, _ := buildVoronoiTree(f, 15, 602)
	paged, err := tree.Page(wire.DTreeParams(128))
	if err != nil {
		f.Fatal(err)
	}
	packets, err := paged.EncodePackets()
	if err != nil {
		f.Fatal(err)
	}
	flat := make([]byte, 0, len(packets)*128)
	for _, pkt := range packets {
		flat = append(flat, pkt...)
	}
	f.Add(flat, 5000.0, 5000.0)
	f.Add(flat[:128], 100.0, 100.0)
	f.Fuzz(func(t *testing.T, data []byte, x, y float64) {
		if len(data) == 0 {
			return
		}
		n := len(data) / 128
		if n == 0 {
			return
		}
		pks := make([][]byte, n)
		for i := range pks {
			pks[i] = data[i*128 : (i+1)*128]
		}
		_, _, _ = ClientLocate(pks, 128, geom.Pt(x, y)) // must not panic or hang
	})
}
