package fabric

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/stream"
)

// TestSnapshotDirRoundTrip pins the sharded zero-parse restart: a fabric
// written to a snapshot directory and restored from it puts byte-identical
// programs on the air — same directory prefix, same tree packets, same
// schedule, same global-id stamps — without building a single D-tree.
func TestSnapshotDirRoundTrip(t *testing.T) {
	ds := dataset.Uniform(130, 977)
	const (
		S        = 3
		capacity = 128
	)
	f, err := Build(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := f.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Capacity != capacity || got.DirPackets != f.DirPackets {
		t.Fatalf("restored capacity %d dirPackets %d, want %d and %d", got.Capacity, got.DirPackets, capacity, f.DirPackets)
	}
	for ch := 0; ch < S; ch++ {
		want, sh := f.Shards[ch], got.Shards[ch]
		if len(sh.IDs) != len(want.IDs) {
			t.Fatalf("shard %d: %d buckets restored, %d built", ch, len(sh.IDs), len(want.IDs))
		}
		for i := range sh.IDs {
			if sh.IDs[i] != want.IDs[i] {
				t.Fatalf("shard %d bucket %d: global %d, want %d", ch, i, sh.IDs[i], want.IDs[i])
			}
		}
		if len(sh.Prog.IndexPackets) != len(want.Prog.IndexPackets) {
			t.Fatalf("shard %d: %d index packets, want %d", ch, len(sh.Prog.IndexPackets), len(want.Prog.IndexPackets))
		}
		for k := range sh.Prog.IndexPackets {
			if !bytes.Equal(sh.Prog.IndexPackets[k], want.Prog.IndexPackets[k]) {
				t.Fatalf("shard %d index packet %d differs after restore", ch, k)
			}
		}
		if sh.Prog.Sched.M != want.Prog.Sched.M || sh.Prog.Sched.CycleLen() != want.Prog.Sched.CycleLen() {
			t.Fatalf("shard %d schedule differs after restore", ch)
		}
		if !bytes.Equal(sh.Flat.Snapshot(), want.Flat.Snapshot()) {
			t.Fatalf("shard %d arena snapshot differs after restore", ch)
		}
		// The whole cycle goes on the air unchanged, data stamps and their
		// global numbering included.
		if !bytes.Equal(cycleBytes(t, sh.Prog), cycleBytes(t, want.Prog)) {
			t.Fatalf("shard %d broadcast cycle differs after restore", ch)
		}
	}
}

// errCycleDone ends cycleBytes' recording.
var errCycleDone = errors.New("cycle recorded")

// cycleWriter keeps the first n bytes written to it and then fails.
type cycleWriter struct {
	buf []byte
	n   int
}

func (w *cycleWriter) Write(p []byte) (int, error) {
	if room := w.n - len(w.buf); len(p) >= room {
		w.buf = append(w.buf, p[:room]...)
		return room, errCycleDone
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// cycleBytes records one whole broadcast cycle of prog from slot 0.
func cycleBytes(t *testing.T, prog *stream.Program) []byte {
	t.Helper()
	const frameHeader = 24 // the wire format's fixed frame header
	w := &cycleWriter{n: prog.Sched.CycleLen() * (frameHeader + prog.Capacity)}
	if err := prog.Transmit(w, 0, nil); !errors.Is(err, errCycleDone) {
		t.Fatalf("transmit: %v", err)
	}
	return w.buf
}

// TestRestoreSnapshotDirRejectsDrift pins the failure modes: a missing
// shard file, a corrupted file, and a snapshot taken over a different site
// set — also one of the same size, whose shards can match in region count
// — must all fail the restore loudly.
func TestRestoreSnapshotDirRejectsDrift(t *testing.T) {
	ds := dataset.Uniform(90, 978)
	const S = 2
	f, err := Build(ds.Area, ds.Sites, S, 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := f.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreSnapshotDir(ds.Area, ds.Sites, S+1, dir, Options{}); err == nil {
		t.Error("restore with a different shard count succeeded")
	}

	other := dataset.Uniform(120, 979)
	if _, err := RestoreSnapshotDir(other.Area, other.Sites, S, dir, Options{}); err == nil {
		t.Error("restore over a different site set succeeded")
	}
	for seed := int64(2000); seed < 2020; seed++ {
		same := dataset.Uniform(90, seed)
		if _, err := RestoreSnapshotDir(same.Area, same.Sites, S, dir, Options{}); err == nil {
			t.Errorf("restore over the same-size site set of seed %d succeeded", seed)
		}
	}

	raw, err := os.ReadFile(SnapshotPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(SnapshotPath(dir, 1), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, dir, Options{}); err == nil {
		t.Error("restore of a corrupted file succeeded")
	}

	if err := os.Remove(SnapshotPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, dir, Options{}); err == nil {
		t.Error("restore with a missing shard file succeeded")
	}
}
