package experiment

import (
	"bytes"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/wire"
)

// TestBuildWithWorkersDeterministic checks the concurrent multi-family
// build end to end: at any build worker count the D-tree snapshots to the
// same bytes and the paged index families report the same broadcast sizes.
func TestBuildWithWorkersDeterministic(t *testing.T) {
	ds := dataset.Uniform(180, 3)
	var wantTree []byte
	var wantPackets []int
	for _, workers := range []int{1, 4, 8} {
		b, err := BuildWithWorkers(ds, 7, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		paged, err := b.DTree.Page(wire.DTreeParams(256))
		if err != nil {
			t.Fatalf("workers=%d: page: %v", workers, err)
		}
		data := paged.Flatten().Snapshot()
		indexes, err := b.Indexes(256)
		if err != nil {
			t.Fatalf("workers=%d: indexes: %v", workers, err)
		}
		packets := make([]int, len(indexes))
		for i, idx := range indexes {
			packets[i] = idx.IndexPackets()
		}
		if wantTree == nil {
			wantTree, wantPackets = data, packets
			continue
		}
		if !bytes.Equal(data, wantTree) {
			t.Fatalf("workers=%d: D-tree differs from workers=1", workers)
		}
		for i := range packets {
			if packets[i] != wantPackets[i] {
				t.Fatalf("workers=%d: index %d pages %d packets, want %d", workers, i, packets[i], wantPackets[i])
			}
		}
	}
}
