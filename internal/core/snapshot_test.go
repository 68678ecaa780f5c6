package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

func buildFlatPaged(t testing.TB, n int, capacity int, seed int64) (*Paged, *FlatPaged) {
	t.Helper()
	sub, _ := testutil.RandomVoronoi(t, n, seed)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(capacity))
	if err != nil {
		t.Fatal(err)
	}
	return paged, paged.Flatten()
}

// TestSnapshotRoundTrip: Save -> Load preserves every query answer, every
// trace, and the exact packet bytes — the property that lets a restarted
// server resume the identical broadcast cycle.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n, capacity int
	}{{1, 256}, {12, 64}, {120, 128}, {120, 2048}} {
		paged, fp := buildFlatPaged(t, tc.n, tc.capacity, int64(40+tc.n))
		data := fp.Snapshot()
		got, err := LoadSnapshot(data)
		if err != nil {
			t.Fatalf("n=%d cap=%d: load: %v", tc.n, tc.capacity, err)
		}
		if got.Flat.N != fp.Flat.N || got.IndexPackets() != fp.IndexPackets() {
			t.Fatalf("n=%d cap=%d: shape mismatch after load", tc.n, tc.capacity)
		}
		area := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
		rng := rand.New(rand.NewSource(int64(90 + tc.n)))
		var a, b []int
		for q := 0; q < 2000; q++ {
			p := geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
			var idA, idB int
			idA, a = fp.LocateInto(p, a)
			idB, b = got.LocateInto(p, b)
			if idA != idB || !sameTrace(a, b) {
				t.Fatalf("n=%d cap=%d query %v: original (%d,%v), loaded (%d,%v)",
					tc.n, tc.capacity, p, idA, a, idB, b)
			}
		}
		wantPk, err := paged.EncodePackets()
		if err != nil {
			t.Fatal(err)
		}
		gotPk, err := got.EncodePackets()
		if err != nil {
			t.Fatalf("n=%d cap=%d: encode after load: %v", tc.n, tc.capacity, err)
		}
		if len(gotPk) != len(wantPk) {
			t.Fatalf("n=%d cap=%d: %d packets after load, want %d", tc.n, tc.capacity, len(gotPk), len(wantPk))
		}
		for k := range gotPk {
			if !bytes.Equal(gotPk[k], wantPk[k]) {
				t.Fatalf("n=%d cap=%d: packet %d differs after snapshot round trip", tc.n, tc.capacity, k)
			}
		}
	}
}

func TestSnapshotFile(t *testing.T) {
	_, fp := buildFlatPaged(t, 40, 256, 7)
	path := t.TempDir() + "/dtree.snap"
	if err := fp.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flat.N != 40 {
		t.Fatalf("loaded %d regions, want 40", got.Flat.N)
	}
	if _, err := LoadSnapshotFile(path + ".missing"); err == nil {
		t.Error("loading a missing file should fail")
	}
}

// TestSnapshotNarrowsOnLoad: a slab written before the arena stored its
// coordinates at float32 precision (full float64 partition points and band
// limits) restores to the arena a fresh build makes, slab for slab, so it
// answers every query as the wire does.
func TestSnapshotNarrowsOnLoad(t *testing.T) {
	paged, fp := buildFlatPaged(t, 120, 128, 17)
	ft, tree := fp.Flat, paged.Tree
	// Write the pointer tree's float64 band limits and partition points over
	// the node and point sections of a fresh slab, as the older arena did.
	old := fp.Snapshot()
	offs, _ := snapshotSections(len(ft.nodes), len(ft.polys), len(ft.pts), fp.packetCount, len(fp.pkts), len(fp.packetNodes), ft.N, 0, false)
	le := binary.LittleEndian
	for i, n := range tree.Nodes {
		rec := old[offs[0]+i*snapNodeSize:]
		le.PutUint64(rec[0:], math.Float64bits(n.CutLo))
		le.PutUint64(rec[8:], math.Float64bits(n.CutHi))
		for j, pl := range n.Polylines {
			sp := ft.polys[int(ft.nodes[i].PolyFirst)+j]
			for k, p := range pl {
				cp := canon(n.Dim, p)
				at := offs[2] + (int(sp.Off)+k)*16
				le.PutUint64(old[at:], math.Float64bits(cp.X))
				le.PutUint64(old[at+8:], math.Float64bits(cp.Y))
			}
		}
	}
	le.PutUint32(old[44:], snapChecksum(old))
	if bytes.Equal(old, fp.Snapshot()) {
		t.Fatal("the float64 slab equals the narrowed one; the test needs an unrounded coordinate")
	}
	got, err := LoadSnapshot(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Snapshot(), fp.Snapshot()) {
		t.Fatal("a float64 slab does not restore to the narrowed arena")
	}
	requireArenaWireAgree(t, "restored", got, testutil.QueryPoints(testutil.BigArea, 2000, 18))
}

// TestSnapshotRejectsDamage flips, truncates and version-skews the slab;
// every mutation must be rejected with an error (the fuzz target explores
// this space much more broadly).
func TestSnapshotRejectsDamage(t *testing.T) {
	_, fp := buildFlatPaged(t, 50, 128, 11)
	data := fp.Snapshot()
	if _, err := LoadSnapshot(nil); err == nil {
		t.Error("nil input should fail")
	}
	for _, cut := range []int{1, 17, 63, 64, len(data) / 2, len(data) - 1} {
		if _, err := LoadSnapshot(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes should fail", cut)
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff // magic
	if _, err := LoadSnapshot(bad); err == nil {
		t.Error("bad magic should fail")
	}
	bad = append([]byte(nil), data...)
	bad[8] = 99 // version
	if _, err := LoadSnapshot(bad); err == nil {
		t.Error("version skew should fail")
	}
	// The CRC covers the entire slab (checksum field zeroed), so any single
	// bit flip anywhere must be rejected.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		bad = append([]byte(nil), data...)
		bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
		if _, err := LoadSnapshot(bad); err == nil {
			t.Fatalf("trial %d: corrupted snapshot loaded", trial)
		}
	}
}

// buildFlatPagedV2 builds an arena carrying the region-adjacency table, the
// shape that snapshots as version 2.
func buildFlatPagedV2(t testing.TB, n, capacity int, seed int64) *FlatPaged {
	t.Helper()
	sub, sites := testutil.RandomVoronoi(t, n, seed)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(capacity))
	if err != nil {
		t.Fatal(err)
	}
	fp := paged.Flatten()
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Flat.SetAdjacency(adj); err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestSnapshotV2RoundTrip: an adjacency-carrying arena snapshots as version
// 2 and restores table, packets and queries exactly; an adjacency-free
// arena keeps writing version 1 byte for byte.
func TestSnapshotV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n, capacity int
	}{{1, 256}, {25, 64}, {90, 512}} {
		fp := buildFlatPagedV2(t, tc.n, tc.capacity, int64(70+tc.n))
		// A sharded channel's table carries non-identity global ids; they
		// must survive the slab too.
		fp.Flat.Adjacency().IDs = make([]int32, tc.n)
		for i := range fp.Flat.Adjacency().IDs {
			fp.Flat.Adjacency().IDs[i] = int32(7 + i*2)
		}
		data := fp.Snapshot()
		if v := int(data[8]); v != snapshotVersion2 {
			t.Fatalf("n=%d: adjacency arena wrote snapshot version %d, want %d", tc.n, v, snapshotVersion2)
		}
		got, err := LoadSnapshot(data)
		if err != nil {
			t.Fatalf("n=%d cap=%d: load: %v", tc.n, tc.capacity, err)
		}
		if !reflect.DeepEqual(got.Flat.Adjacency(), fp.Flat.Adjacency()) {
			t.Fatalf("n=%d cap=%d: adjacency table differs after round trip", tc.n, tc.capacity)
		}
		wantPk, err := fp.EncodePackets()
		if err != nil {
			t.Fatal(err)
		}
		gotPk, err := got.EncodePackets()
		if err != nil {
			t.Fatalf("n=%d cap=%d: encode after load: %v", tc.n, tc.capacity, err)
		}
		if len(gotPk) != len(wantPk) {
			t.Fatalf("n=%d cap=%d: %d packets after load, want %d", tc.n, tc.capacity, len(gotPk), len(wantPk))
		}
		for k := range gotPk {
			if !bytes.Equal(gotPk[k], wantPk[k]) {
				t.Fatalf("n=%d cap=%d: packet %d differs after v2 round trip", tc.n, tc.capacity, k)
			}
		}
	}
	// Without a table the format byte must not move: restarts from old
	// snapshots keep working.
	_, v1 := buildFlatPaged(t, 25, 64, 95)
	if v := int(v1.Snapshot()[8]); v != snapshotVersion {
		t.Fatalf("adjacency-free arena wrote snapshot version %d, want %d", v, snapshotVersion)
	}
}

// TestSnapshotV2RejectsDamage: the slab checksum covers the adjacency
// sections, so truncation and bit flips anywhere — including inside the new
// sections — are rejected, and a structurally plausible slab whose table
// breaks the adjacency invariants fails the table validation.
func TestSnapshotV2RejectsDamage(t *testing.T) {
	fp := buildFlatPagedV2(t, 40, 128, 13)
	data := fp.Snapshot()
	for _, cut := range []int{len(data) - 1, len(data) - 17, len(data) / 2} {
		if _, err := LoadSnapshot(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes should fail", cut)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		bad := append([]byte(nil), data...)
		bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
		if _, err := LoadSnapshot(bad); err == nil {
			t.Fatalf("trial %d: corrupted v2 snapshot loaded", trial)
		}
	}
	// Re-snapshot a deliberately asymmetric table: the slab is then
	// internally consistent (fresh checksum), so only the adjacency
	// validation can catch it.
	if len(fp.Flat.adj.Adj) > 1 {
		row0 := fp.Flat.adj.Neighbors(0)
		if len(row0) > 0 {
			old := row0[0]
			for cand := int32(0); int(cand) < fp.Flat.N; cand++ {
				if cand == old || cand == 0 || fp.Flat.adj.hasNeighbor(int(cand), 0) {
					continue
				}
				row0[0] = cand
				if _, err := LoadSnapshot(fp.Snapshot()); err == nil {
					t.Fatal("snapshot with an asymmetric adjacency table loaded")
				}
				row0[0] = old
				break
			}
		}
	}
}
