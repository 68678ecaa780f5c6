package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// TestSnapshotFileFailedWriteLeavesNoTemp makes the rename fail — the
// target is a non-empty directory — and requires the error and no
// temporary file left behind.
func TestSnapshotFileFailedWriteLeavesNoTemp(t *testing.T) {
	_, fp := buildFlatPaged(t, 40, 256, 7)
	path := filepath.Join(t.TempDir(), "dtree.snap")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fp.WriteSnapshotFile(path); err == nil {
		t.Fatal("writing over a non-empty directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind after the failed write (stat: %v)", err)
	}
}

// TestSnapshotRejectsDamage flips, truncates and version-skews the file;
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
	bad[7] = '9' // format version
	if _, err := LoadSnapshot(bad); err == nil {
		t.Error("version skew should fail")
	}
	// A file in the retired arena format is refused with a pointer to the
	// command that rewrites it.
	old := append([]byte("DTARENA1"), make([]byte, 120)...)
	if _, err := LoadSnapshot(old); err == nil || !strings.Contains(err.Error(), "DTARENA1") || !strings.Contains(err.Error(), "dtreectl snapshot") {
		t.Errorf("retired format: got %v, want an error naming DTARENA1 and dtreectl snapshot", err)
	}
	// With the CRC recomputed, a region count the tree does not have fails
	// the decode: 1 leaves the index no nodes at all, and one region too
	// many or too few leaves a bucket unreached or repeated.
	for _, regions := range []uint32{1, 49, 51} {
		bad = append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[12:], regions)
		bad = binary.LittleEndian.AppendUint32(bad[:len(bad)-4], crc32.Checksum(bad[:len(bad)-4], snapCRC))
		if _, err := LoadSnapshot(bad); err == nil {
			t.Errorf("region count %d for a 50-region index loaded", regions)
		}
	}
	// With the CRC recomputed, a nonzero byte in the padding after a
	// packet's last node changes no decoded field; only the canonical-form
	// check refuses the file.
	k := len(fp.occupied) - 1
	for fp.occupied[k] == int32(fp.Params.PacketCapacity) {
		k--
	}
	bad = append([]byte(nil), data...)
	bad[snapHeaderSize+(k+1)*fp.Params.PacketCapacity-1] = 0xff
	bad = binary.LittleEndian.AppendUint32(bad[:len(bad)-4], crc32.Checksum(bad[:len(bad)-4], snapCRC))
	if _, err := LoadSnapshot(bad); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Errorf("non-canonical padding: got %v, want a canonical-form error", err)
	}
	// The CRC covers the whole file, so any single bit flip anywhere must
	// be rejected.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		bad = append([]byte(nil), data...)
		bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
		if _, err := LoadSnapshot(bad); err == nil {
			t.Fatalf("trial %d: corrupted snapshot loaded", trial)
		}
	}
}

// buildFlatPagedAdj builds an arena carrying the region-adjacency table,
// whose snapshot stores the appendix ahead of the index packets.
func buildFlatPagedAdj(t testing.TB, n, capacity int, seed int64) *FlatPaged {
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

// TestSnapshotAdjacencyRoundTrip: an adjacency-carrying arena snapshots its
// appendix with the index and restores table and packets exactly.
func TestSnapshotAdjacencyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n, capacity int
	}{{1, 256}, {25, 64}, {90, 512}} {
		fp := buildFlatPagedAdj(t, tc.n, tc.capacity, int64(70+tc.n))
		// A sharded channel's table carries non-identity global ids; they
		// must survive the file too.
		fp.Flat.Adjacency().IDs = make([]int32, tc.n)
		for i := range fp.Flat.Adjacency().IDs {
			fp.Flat.Adjacency().IDs[i] = int32(7 + i*2)
		}
		data := fp.Snapshot()
		if a := binary.LittleEndian.Uint32(data[20:]); a == 0 {
			t.Fatalf("n=%d: adjacency arena wrote no appendix packets", tc.n)
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
				t.Fatalf("n=%d cap=%d: packet %d differs after round trip", tc.n, tc.capacity, k)
			}
		}
	}
}

// TestSnapshotAdjacencyRejectsDamage: the file checksum covers the
// appendix, so truncation and bit flips anywhere — including inside the
// appendix — are rejected, and a structurally plausible file whose table
// breaks the adjacency invariants fails the table validation.
func TestSnapshotAdjacencyRejectsDamage(t *testing.T) {
	fp := buildFlatPagedAdj(t, 40, 128, 13)
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
			t.Fatalf("trial %d: corrupted adjacency snapshot loaded", trial)
		}
	}
	// Re-snapshot a deliberately asymmetric table: the file is then
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
