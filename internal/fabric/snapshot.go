package fabric

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/stream"
)

// Per-shard snapshot files are the fabric's restart at every S: each holds
// one shard's index exactly as broadcast (a core snapshot: the adjacency
// appendix and the D-tree packets), so a restore builds no D-tree.

// clipSum fingerprints a shard's input: its clipped cells, vertex by vertex,
// with their global ids. Every shard arena carries it as its Source, so a
// snapshot restored over other cells — a different site set of the same
// size, say — is refused instead of serving the wrong geometry.
func clipSum(clips []clippedRegion) uint64 {
	h := uint64(len(clips))
	mix := func(v uint64) {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	for _, c := range clips {
		mix(uint64(c.id))
		mix(uint64(len(c.poly)))
		for _, p := range c.poly {
			mix(math.Float64bits(p.X))
			mix(math.Float64bits(p.Y))
		}
	}
	return h
}

// SnapshotPath names shard ch's snapshot file inside dir.
func SnapshotPath(dir string, ch int) string {
	return filepath.Join(dir, fmt.Sprintf("shard%d.dtsnap", ch))
}

// WriteSnapshotDir writes one snapshot per shard into dir (creating it if
// needed), each durably and atomically (core.FlatPaged.WriteSnapshotFile).
func (f *Fabric) WriteSnapshotDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sh := range f.Shards {
		if err := sh.Flat.WriteSnapshotFile(SnapshotPath(dir, sh.Channel)); err != nil {
			return fmt.Errorf("fabric: shard %d snapshot: %w", sh.Channel, err)
		}
	}
	return nil
}

// RestoreSnapshotDir is Build with every shard's arena loaded from its
// snapshot in dir (WriteSnapshotDir) instead of built: it returns programs
// byte-identical to Build(area, sites, S, capacity, opts), or fails. The
// cheap geometry — Voronoi cells, kd partition, per-shard clips — is
// recomputed, since it pins each shard's bucket numbering and global ids. A
// shard file is refused unless it decodes and re-encodes to itself, carries
// its recomputed clips' fingerprint and the capacity, and stores an
// adjacency appendix only when opts asks for one; one stored without it
// gets the table built, as Build would.
func RestoreSnapshotDir(area geom.Rect, sites []geom.Point, S, capacity int, dir string, opts Options) (*Fabric, error) {
	return build(area, sites, S, capacity, opts, dir)
}

// loadCut is Channel.Build with the tree build and arena encode replaced
// by a snapshot load from path. source is the fingerprint (clipSum) of the
// clips sub was welded from.
func loadCut(sc stream.Channel, sub *region.Subdivision, keys []int, path string, source uint64) (*stream.Cut, error) {
	fp, err := core.LoadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case fp.Source != source || fp.Flat.N != sub.N():
		return nil, fmt.Errorf("snapshot does not match the clipped site set: %d regions with fingerprint %016x, snapshot %d with %016x", sub.N(), source, fp.Flat.N, fp.Source)
	case fp.Params.PacketCapacity != sc.Capacity:
		return nil, fmt.Errorf("snapshot has %d B packets, the broadcast %d B", fp.Params.PacketCapacity, sc.Capacity)
	case fp.Flat.Adjacency() != nil && sc.SiteOf == nil:
		return nil, fmt.Errorf("snapshot carries an adjacency appendix the broadcast did not ask for")
	}
	prog, err := sc.Program(sub, keys, fp)
	if err != nil {
		return nil, err
	}
	return &stream.Cut{Sub: sub, Flat: fp, Prog: prog}, nil
}
