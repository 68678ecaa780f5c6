package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/stream"
)

// TestSnapshotDirRoundTrip pins the restart at every S: a fabric written
// to a snapshot directory and restored from it puts byte-identical programs
// on the air — same directory prefix, same adjacency appendix, same tree
// packets, same schedule, same global-id stamps — without building a single
// D-tree. S = 1 is the single channel's restart.
func TestSnapshotDirRoundTrip(t *testing.T) {
	ds := dataset.Uniform(130, 977)
	const capacity = 128
	for _, S := range []int{1, 3} {
		for _, adjacency := range []bool{false, true} {
			t.Run(fmt.Sprintf("S=%d/adjacency=%v", S, adjacency), func(t *testing.T) {
				opts := Options{Adjacency: adjacency}
				f, err := Build(ds.Area, ds.Sites, S, capacity, opts)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if err := f.WriteSnapshotDir(dir); err != nil {
					t.Fatal(err)
				}
				got, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, capacity, dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameFabric(t, got, f)
			})
		}
	}
}

// requireSameFabric fails unless got broadcasts exactly want's programs:
// bucket numbering, index packets, schedule, arena snapshot and the whole
// cycle, data stamps and their global numbering included.
func requireSameFabric(t *testing.T, got, want *Fabric) {
	t.Helper()
	if got.DirPackets != want.DirPackets || len(got.Shards) != len(want.Shards) {
		t.Fatalf("restored dirPackets %d, %d shards; want %d, %d", got.DirPackets, len(got.Shards), want.DirPackets, len(want.Shards))
	}
	for ch, w := range want.Shards {
		sh := got.Shards[ch]
		if !slices.Equal(sh.IDs, w.IDs) {
			t.Fatalf("shard %d: global ids %v, want %v", ch, sh.IDs, w.IDs)
		}
		if !slices.EqualFunc(sh.Prog.IndexPackets, w.Prog.IndexPackets, bytes.Equal) {
			t.Fatalf("shard %d index packets differ after restore", ch)
		}
		if sh.Prog.Sched.M != w.Prog.Sched.M || sh.Prog.Sched.CycleLen() != w.Prog.Sched.CycleLen() {
			t.Fatalf("shard %d schedule differs after restore", ch)
		}
		if !bytes.Equal(sh.Flat.Snapshot(), w.Flat.Snapshot()) {
			t.Fatalf("shard %d arena snapshot differs after restore", ch)
		}
		if !bytes.Equal(cycleBytes(t, sh.Prog), cycleBytes(t, w.Prog)) {
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

// TestRestoreSnapshotDirRejectsDrift pins the failure modes: a different
// shard count, a snapshot taken over a different site set — also one of the
// same size, whose shards can match in region count — another packet
// capacity, a stored appendix the options did not ask for, a corrupted file
// and a missing shard file must all fail the restore loudly. A snapshot
// without the appendix restored with Options.Adjacency gets the table built,
// exactly as the adjacency build has it.
func TestRestoreSnapshotDirRejectsDrift(t *testing.T) {
	ds := dataset.Uniform(90, 978)
	const (
		S        = 2
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

	if _, err := RestoreSnapshotDir(ds.Area, ds.Sites, S+1, capacity, dir, Options{}); err == nil {
		t.Error("restore with a different shard count succeeded")
	}

	other := dataset.Uniform(120, 979)
	if _, err := RestoreSnapshotDir(other.Area, other.Sites, S, capacity, dir, Options{}); err == nil {
		t.Error("restore over a different site set succeeded")
	}
	for seed := int64(2000); seed < 2020; seed++ {
		same := dataset.Uniform(90, seed)
		if _, err := RestoreSnapshotDir(same.Area, same.Sites, S, capacity, dir, Options{}); err == nil {
			t.Errorf("restore over the same-size site set of seed %d succeeded", seed)
		}
	}

	if _, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, 2*capacity, dir, Options{}); err == nil || !strings.Contains(err.Error(), "B packets") {
		t.Errorf("restore at another capacity: got %v, want a capacity mismatch", err)
	}

	adj, err := Build(ds.Area, ds.Sites, S, capacity, Options{Adjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, capacity, dir, Options{Adjacency: true})
	if err != nil {
		t.Fatalf("plain snapshot restored with adjacency: %v", err)
	}
	requireSameFabric(t, got, adj)
	adjDir := t.TempDir()
	if err := adj.WriteSnapshotDir(adjDir); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, capacity, adjDir, Options{}); err == nil || !strings.Contains(err.Error(), "appendix") {
		t.Errorf("appendix snapshot restored without adjacency: got %v, want a refusal", err)
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
	if _, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, capacity, dir, Options{}); err == nil {
		t.Error("restore of a corrupted file succeeded")
	}

	if err := os.Remove(SnapshotPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSnapshotDir(ds.Area, ds.Sites, S, capacity, dir, Options{}); err == nil {
		t.Error("restore with a missing shard file succeeded")
	}
}
