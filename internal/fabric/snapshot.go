package fabric

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/voronoi"
)

// Per-shard snapshot files extend the single-channel zero-parse restart to
// the sharded fabric: WriteSnapshotDir persists every shard's index as one
// core snapshot (the shard's adjacency appendix and D-tree packets), and
// RestoreSnapshotDir brings the fabric back without rebuilding a single
// D-tree. The restore recomputes only the cheap geometry — the raw Voronoi
// cells, the kd partition and the per-shard clips, which pin the
// bucket->global-id mapping — and refuses a file whose source fingerprint
// is not that of the recomputed clips, then decodes the stored packets. The
// loader accepts only packets its decoded arena re-encodes to, so the
// restored programs put byte-identical cycles on the air.

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
// needed), each atomically via the core writer.
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

// RestoreSnapshotDir rebuilds the fabric from per-shard snapshot files
// written by WriteSnapshotDir for the same area, sites and shard count. The
// packet capacity is taken from the snapshots (all shards must agree). Each
// file must pass the core loader's checks and carry the fingerprint of the
// shard's freshly clipped cells, so a stale or misdirected snapshot fails
// loudly instead of serving wrong geometry.
func RestoreSnapshotDir(area geom.Rect, sites []geom.Point, S int, dir string, opts Options) (*Fabric, error) {
	cells, err := voronoi.Cells(area, sites)
	if err != nil {
		return nil, err
	}
	d, rects, _, err := Partition(area, sites, S)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		Area:   area,
		Dir:    d,
		Rects:  rects,
		Shards: make([]*Shard, S),
	}
	ids := siteIDs(len(sites))
	var wg sync.WaitGroup
	errs := make([]error, S)
	for ch := 0; ch < S; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			clips := clipShard(ids, cells, rects[ch])
			f.Shards[ch], errs[ch] = restoreShard(d, ch, rects[ch], clips, SnapshotPath(dir, ch), opts, siteOfSlice(sites))
		}(ch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	f.Capacity = f.Shards[0].Flat.Params.PacketCapacity
	for _, sh := range f.Shards[1:] {
		if c := sh.Flat.Params.PacketCapacity; c != f.Capacity {
			return nil, fmt.Errorf("fabric: shard %d snapshot capacity %d, shard 0 has %d", sh.Channel, c, f.Capacity)
		}
	}
	f.DirPackets = prefixPackets(d, f.Capacity)
	return f, nil
}

// restoreShard is compileShard with the tree build and arena encode
// replaced by a snapshot load: the clips still pin the shard's bucket
// numbering and global ids, and their fingerprint must be the one the file
// carries. An arena restored with an adjacency appendix keeps its table.
func restoreShard(dir *Directory, ch int, rect geom.Rect, clips []clippedRegion, path string, opts Options, sites siteOf) (*Shard, error) {
	sub, ids, err := weldClips(ch, rect, clips)
	if err != nil {
		return nil, err
	}
	fp, err := core.LoadSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("fabric: shard %d: %w", ch, err)
	}
	if sum := clipSum(clips); fp.Source != sum || sub.N() != fp.Flat.N {
		return nil, fmt.Errorf("fabric: shard %d snapshot does not match the clipped site set: %d regions with fingerprint %016x, snapshot %d with %016x", ch, sub.N(), sum, fp.Flat.N, fp.Source)
	}
	sc, err := shardChannel(dir, ch, rect, fp.Params.PacketCapacity, opts, sites)
	if err != nil {
		return nil, err
	}
	prog, err := sc.Program(sub, ids, fp)
	if err != nil {
		return nil, fmt.Errorf("fabric: shard %d: %w", ch, err)
	}
	return &Shard{
		Channel: ch,
		Rect:    rect,
		Sub:     sub,
		IDs:     ids,
		Flat:    fp,
		Prog:    prog,
		clips:   clips,
	}, nil
}
