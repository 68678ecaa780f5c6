package fabric

import (
	"encoding/binary"
	"fmt"
	"sync"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/stream"
	"airindex/internal/voronoi"
)

// sliverArea drops clip residue: a global cell whose intersection with a
// shard rectangle is at most this area is numerical noise from a cell
// grazing the split line, not content. Service areas are O(1e8) square
// units, so 1e-9 is ~17 orders below any real cell.
const sliverArea = 1e-9

// clippedRegion is one global Voronoi cell's piece inside a shard
// rectangle, tagged with the cell's global id. Comparing these slices
// exactly (float-bit identical vertices) is how the swapper decides
// whether a churn batch touched a shard at all — the voronoi.Maintainer
// guarantees untouched cells keep their exact bytes, and geom.ClipRect is
// deterministic, so unchanged content compares equal.
type clippedRegion struct {
	id   int
	poly geom.Polygon
}

// clipCell returns cell poly's piece inside rect, or nil when the piece is
// empty or a sliver. b is the cell's bounding box. A cell whose box lies
// inside rect is its own piece and comes back uncopied: every cell the
// voronoi.Maintainer hands out is immutable, so a shard that covers its
// cells whole (S = 1 covers them all) shares them instead of holding a
// second copy.
func clipCell(poly geom.Polygon, b, rect geom.Rect) geom.Polygon {
	if !b.Intersects(rect) {
		return nil
	}
	piece := poly
	if !rect.ContainsRect(b) {
		piece = geom.ClipRect(poly, rect)
	}
	if piece == nil || piece.Area() <= sliverArea {
		return nil
	}
	return piece
}

// clipShard cuts the global cells (ids[i] owns polys[i]) down to one
// shard rectangle, returning the surviving pieces in cell (global-id)
// order. Cells straddling a shard boundary appear in every shard they
// intersect — honest data replication, charged to each shard's cycle.
func clipShard(ids []int, polys []geom.Polygon, rect geom.Rect) []clippedRegion {
	var out []clippedRegion
	for i, poly := range polys {
		if piece := clipCell(poly, poly.Bounds(), rect); piece != nil {
			out = append(out, clippedRegion{id: ids[i], poly: piece})
		}
	}
	return out
}

func equalClips(a, b []clippedRegion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].id != b[i].id || len(a[i].poly) != len(b[i].poly) {
			return false
		}
		for j := range a[i].poly {
			if a[i].poly[j] != b[i].poly[j] {
				return false
			}
		}
	}
	return true
}

// Shard is one channel's compiled broadcast: the clipped subdivision it
// indexes, its flat D-tree arena, and the rendered-ready program whose
// index copies carry the channel directory as a prefix when S > 1.
type Shard struct {
	Channel int
	Rect    geom.Rect
	Sub     *region.Subdivision
	IDs     []int // local bucket -> global data-instance id
	// Flat is the arena the shard serves queries from (Access/AccessInto)
	// and encodes its packets from; its snapshot hands the shard's index to
	// another process without a rebuild.
	Flat *core.FlatPaged
	Prog *stream.Program

	clips []clippedRegion
}

// Fabric is the compiled multi-channel broadcast: S shard programs plus
// the directory they all replicate.
type Fabric struct {
	Area       geom.Rect
	DirPackets int
	Dir        *Directory
	Rects      []geom.Rect
	Shards     []*Shard
}

// Options tunes the fabric build.
type Options struct {
	// BuildWorkers bounds the per-shard D-tree build parallelism; <= 0
	// uses the core default.
	BuildWorkers int
	// Adjacency attaches a region-adjacency table to every shard arena and
	// splices its self-describing appendix between the directory and the
	// tree in every index copy, making each channel a continuous-query
	// medium (fabric.Continuous). With S > 1 the table carries the global
	// data-instance ids, so hopping clients union per-shard answers and
	// break kNN ties in the global numbering without bucket downloads.
	Adjacency bool
}

// siteOf resolves a global data-instance id to its site location while
// compiling adjacency tables.
type siteOf func(globalID int) (geom.Point, error)

// siteOfSlice is the siteOf for identity-numbered site slices (Build,
// RestoreSnapshotDir).
func siteOfSlice(sites []geom.Point) siteOf {
	return func(id int) (geom.Point, error) {
		if id < 0 || id >= len(sites) {
			return geom.Point{}, fmt.Errorf("fabric: global id %d outside %d sites", id, len(sites))
		}
		return sites[id], nil
	}
}

// shardChannel describes channel ch to the stream compiler. With S > 1 its
// directory copy, stamped with ch, leads every index copy, and the data
// packets and the adjacency table carry global data-instance ids. A lone
// channel is the plain single channel: no directory (there is nothing to
// route) and no global ids (its buckets are the site ids), so its bytes are
// exactly those stream.NewSwapper broadcasts. sites resolves ids when the
// options ask for adjacency.
func shardChannel(dir *Directory, ch int, rect geom.Rect, capacity int, opts Options, sites siteOf) (stream.Channel, error) {
	if opts.Adjacency && sites == nil {
		return stream.Channel{}, fmt.Errorf("fabric: Options.Adjacency needs the site locations")
	}
	sc := stream.Channel{
		Area:         rect,
		Capacity:     capacity,
		BuildWorkers: opts.BuildWorkers,
	}
	if dir.S > 1 {
		prefix, err := dir.EncodePackets(capacity, ch)
		if err != nil {
			return stream.Channel{}, err
		}
		sc.Prefix, sc.GlobalIDs = prefix, true
	}
	if opts.Adjacency {
		sc.SiteOf = sites
	}
	return sc, nil
}

// prefixPackets is the directory prefix length of every index copy: zero
// on a lone channel, which carries no directory.
func prefixPackets(dir *Directory, capacity int) int {
	if dir.S == 1 {
		return 0
	}
	return dir.PacketCount(capacity)
}

// Build partitions the sites into S shards and compiles the whole fabric
// from scratch: the sites' raw Voronoi cells, the kd partition, and one
// D-tree program per shard, welded from that shard's clipped cells alone.
// S = 1 is the single channel, byte for byte: no directory prefix and no
// global ids (TestFabricS1IsSingleChannel).
func Build(area geom.Rect, sites []geom.Point, S, capacity int, opts Options) (*Fabric, error) {
	return build(area, sites, S, capacity, opts, "")
}

// build is Build, loading every shard's arena from its snapshot in snapDir
// when that is set (RestoreSnapshotDir).
func build(area geom.Rect, sites []geom.Point, S, capacity int, opts Options, snapDir string) (*Fabric, error) {
	cells, err := voronoi.Cells(area, sites)
	if err != nil {
		return nil, err
	}
	dir, rects, _, err := Partition(area, sites, S)
	if err != nil {
		return nil, err
	}
	return fromCells(siteIDs(len(sites)), cells, dir, rects, capacity, opts, siteOfSlice(sites), snapDir)
}

// siteIDs is the identity numbering of n sites: cell i is site i's.
func siteIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// fromCells compiles a fabric from raw Voronoi cells (ids[i] owns
// polys[i], ids ascending): every shard clips the cells to its rectangle
// and welds its pieces once, in its own compile (compileShard).
func fromCells(ids []int, polys []geom.Polygon, dir *Directory, rects []geom.Rect, capacity int, opts Options, sites siteOf, snapDir string) (*Fabric, error) {
	if len(rects) != dir.S {
		return nil, fmt.Errorf("fabric: %d rects for %d channels", len(rects), dir.S)
	}
	area := rects[0]
	for _, r := range rects[1:] {
		area = area.Union(r)
	}
	f := &Fabric{
		Area:       area,
		DirPackets: prefixPackets(dir, capacity),
		Dir:        dir,
		Rects:      rects,
		Shards:     make([]*Shard, dir.S),
	}
	var wg sync.WaitGroup
	errs := make([]error, dir.S)
	for ch := 0; ch < dir.S; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			f.Shards[ch], errs[ch] = compileShard(dir, ch, rects[ch], clipShard(ids, polys, rects[ch]), capacity, opts, sites, snapDir)
		}(ch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// splitClips returns the clips' global ids and polygons in clip order.
func splitClips(clips []clippedRegion) (ids []int, polys []geom.Polygon) {
	ids = make([]int, len(clips))
	polys = make([]geom.Polygon, len(clips))
	for i, c := range clips {
		ids[i], polys[i] = c.id, c.poly
	}
	return ids, polys
}

// compileShard compiles one channel's program: weld the clipped pieces
// into a shard-local subdivision and compile it as a stream channel led by
// the directory, building the arena from scratch or, with snapDir set,
// loading it from the shard's snapshot there.
func compileShard(dir *Directory, ch int, rect geom.Rect, clips []clippedRegion, capacity int, opts Options, sites siteOf, snapDir string) (*Shard, error) {
	sc, err := shardChannel(dir, ch, rect, capacity, opts, sites)
	if err != nil {
		return nil, err
	}
	if len(clips) == 0 {
		return nil, fmt.Errorf("fabric: shard %d covers no regions", ch)
	}
	ids, polys := splitClips(clips)
	sub, err := region.New(rect, polys)
	if err != nil {
		return nil, fmt.Errorf("fabric: shard %d subdivision: %w", ch, err)
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: shard %d subdivision invalid: %w", ch, err)
	}
	var cut *stream.Cut
	if snapDir == "" {
		cut, err = sc.Build(sub, ids)
	} else {
		cut, err = loadCut(sc, sub, ids, SnapshotPath(snapDir, ch), clipSum(clips))
	}
	if err != nil {
		return nil, fmt.Errorf("fabric: shard %d: %w", ch, err)
	}
	return newShard(ch, rect, ids, clips, cut), nil
}

// newShard wraps one compiled generation of channel ch, stamping its arena
// with the clips' fingerprint (clipSum).
func newShard(ch int, rect geom.Rect, ids []int, clips []clippedRegion, cut *stream.Cut) *Shard {
	cut.Flat.Source = clipSum(clips)
	return &Shard{
		Channel: ch,
		Rect:    rect,
		Sub:     cut.Sub,
		IDs:     ids,
		Flat:    cut.Flat,
		Prog:    cut.Prog,
		clips:   clips,
	}
}

// Programs returns the per-channel programs (for stream.NewServer).
func (f *Fabric) Programs() []*stream.Program {
	out := make([]*stream.Program, len(f.Shards))
	for i, s := range f.Shards {
		out[i] = s.Prog
	}
	return out
}

// GlobalIDFromData extracts the global data-instance id a shard's data
// packets carry in bytes [8,12) (stream.Program.IDs) from a downloaded
// bucket.
func GlobalIDFromData(data []byte) (int, error) {
	if len(data) < 12 {
		return 0, fmt.Errorf("fabric: bucket data %d bytes, no global id", len(data))
	}
	return int(binary.LittleEndian.Uint32(data[8:])), nil
}
