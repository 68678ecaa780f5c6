package wire

import (
	"math/rand"
	"testing"
)

// chain builds a simple parent chain: 0 -> 1 -> 2 -> ...
func chain(sizes ...int) []NodeSpec {
	specs := make([]NodeSpec, len(sizes))
	for i, s := range sizes {
		specs[i] = NodeSpec{ID: i, Size: s, Parent: i - 1, Leaf: i == len(sizes)-1}
		if i+1 < len(sizes) {
			specs[i].Children = []int{i + 1}
		}
	}
	return specs
}

func TestTopDownParentAffinity(t *testing.T) {
	// Three small nodes share the root's packet.
	layout, err := TopDown(chain(30, 30, 30), 100)
	if err != nil {
		t.Fatal(err)
	}
	if layout.PacketCount != 1 {
		t.Fatalf("packets = %d, want 1", layout.PacketCount)
	}
	if layout.SizeBytes() != 90 {
		t.Fatalf("occupied = %d", layout.SizeBytes())
	}
}

func TestTopDownOverflowOpensNewPacket(t *testing.T) {
	layout, err := TopDown(chain(60, 60, 60), 100)
	if err != nil {
		t.Fatal(err)
	}
	if layout.PacketCount != 3 {
		t.Fatalf("packets = %d, want 3", layout.PacketCount)
	}
	for id := 0; id < 3; id++ {
		if got := layout.FirstPacket(id); got != id {
			t.Errorf("node %d in packet %d", id, got)
		}
	}
}

func TestTopDownMultiPacketNode(t *testing.T) {
	specs := chain(250, 30)
	layout, err := TopDown(specs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := layout.PacketsOf(0); len(got) != 3 {
		t.Fatalf("big node packets = %v, want 3", got)
	}
	// The child fits in the big node's last packet (occupied 50 of 100).
	if got := layout.FirstPacket(1); got != int(layout.PacketsOf(0)[2]) {
		t.Errorf("child in packet %d, want parent's tail %d", got, layout.PacketsOf(0)[2])
	}
	if err := layout.Validate(specs); err != nil {
		t.Fatal(err)
	}
}

func TestTopDownLeafMerge(t *testing.T) {
	// A root with four leaf children, each too big for the root's packet:
	// without merging they'd occupy four packets; merging packs them pairwise.
	specs := []NodeSpec{
		{ID: 0, Size: 80, Parent: -1, Children: []int{1, 2, 3, 4}},
		{ID: 1, Size: 40, Parent: 0, Leaf: true},
		{ID: 2, Size: 40, Parent: 0, Leaf: true},
		{ID: 3, Size: 40, Parent: 0, Leaf: true},
		{ID: 4, Size: 40, Parent: 0, Leaf: true},
	}
	layout, err := TopDown(specs, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Root alone; leaves merge 2-per-packet.
	if layout.PacketCount != 3 {
		t.Fatalf("packets = %d, want 3", layout.PacketCount)
	}
	if err := layout.Validate(specs); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPacksSequentially(t *testing.T) {
	specs := []NodeSpec{
		{ID: 0, Size: 40}, {ID: 1, Size: 40}, {ID: 2, Size: 40}, {ID: 3, Size: 90},
	}
	layout, err := Greedy(specs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if layout.PacketCount != 3 {
		t.Fatalf("packets = %d, want 3", layout.PacketCount)
	}
	if layout.FirstPacket(0) != layout.FirstPacket(1) {
		t.Error("first two nodes should share a packet")
	}
	if layout.FirstPacket(2) == layout.FirstPacket(1) {
		t.Error("third node should start a new packet")
	}
}

func TestPagingErrors(t *testing.T) {
	if _, err := TopDown(chain(10), 0); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := TopDown([]NodeSpec{{ID: 0, Size: 0, Parent: -1}}, 100); err == nil {
		t.Error("zero-size node should fail")
	}
	if _, err := TopDown([]NodeSpec{{ID: 0, Size: 10, Parent: -1}, {ID: 0, Size: 10, Parent: 0}}, 100); err == nil {
		t.Error("duplicate node id should fail")
	}
	if _, err := TopDown([]NodeSpec{{ID: 1, Size: 10, Parent: 0}}, 100); err == nil {
		t.Error("child before parent should fail")
	}
}

func TestRandomTreePagingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		capacity := 64 + rng.Intn(1024)
		n := 2 + rng.Intn(300)
		specs := make([]NodeSpec, n)
		specs[0] = NodeSpec{ID: 0, Size: 1 + rng.Intn(3*capacity), Parent: -1}
		for i := 1; i < n; i++ {
			p := rng.Intn(i)
			specs[i] = NodeSpec{ID: i, Size: 1 + rng.Intn(3*capacity), Parent: p}
			specs[p].Children = append(specs[p].Children, i)
		}
		// BFS order by construction? Parents always have smaller ids, and
		// specs are in id order, so parents precede children.
		for i := range specs {
			specs[i].Leaf = len(specs[i].Children) == 0
		}
		layout, err := TopDown(specs, capacity)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := layout.Validate(specs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Total occupied bytes must equal total node sizes.
		var want int
		for _, s := range specs {
			want += s.Size
		}
		if layout.SizeBytes() != want {
			t.Fatalf("trial %d: occupied %d != total size %d", trial, layout.SizeBytes(), want)
		}
		if layout.Utilization() <= 0 || layout.Utilization() > 1 {
			t.Fatalf("trial %d: utilization %v", trial, layout.Utilization())
		}
		g, err := Greedy(specs, capacity)
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		if err := g.Validate(specs); err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
	}
}

func TestParamsPresets(t *testing.T) {
	for _, p := range []Params{DTreeParams(512), DecompositionParams(512), RStarParams(512)} {
		if err := p.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
		if p.PointSize() != 8 {
			t.Errorf("point size = %d", p.PointSize())
		}
		if p.DataBucketPackets() != 2 {
			t.Errorf("bucket packets = %d", p.DataBucketPackets())
		}
	}
	if DTreeParams(64).DataBucketPackets() != 16 {
		t.Error("1 KB instance at 64 B packets should need 16 packets")
	}
	if err := (Params{PacketCapacity: 4, BidSize: 2, PointerSize: 4, CoordSize: 4}).Validate(); err == nil {
		t.Error("tiny capacity should fail validation")
	}
}
