package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"airindex/internal/geom"
	"airindex/internal/region"
)

// This file adds region adjacency to the flat arena: a compact CSR table of
// which Voronoi regions border which, plus each region's site and the service
// area, precomputed at build time and broadcast as a self-describing appendix
// ahead of the D-tree index packets. With the table a client that knows its
// containing region can answer the continuous-query primitives entirely from
// cached state:
//
//   - Contains: exact Voronoi membership ("did I cross a boundary?") — p is
//     in region i iff p is in Area and site i is at least as close as every
//     adjacent site, because a Voronoi cell is the intersection of the
//     half-planes toward its Delaunay neighbors only.
//   - KNN: best-first adjacency walk collecting (dist², id)-ordered sites.
//     The set of cells whose sites lie within any radius r of p is connected
//     in the adjacency graph and contains p's cell (every cell crossed by the
//     segment from p to such a site has its own site within r), so the walk
//     may stop as soon as the frontier's nearest site is strictly farther
//     than the k-th best collected.
//   - Window: breadth-first flood over the regions whose cells intersect a
//     rectangle. Membership is decided by clipping the rectangle by the
//     bisector half-planes toward the region's neighbors — nonempty ⟺ the
//     cell meets the rectangle — and the member set is connected because the
//     rectangle is convex. The seed must be a region whose cell meets the
//     window (continuous clients center the window on their own position, so
//     their containing region qualifies).
//
// For a sharded fabric the same table is built per shard with Area = the
// shard rectangle: a cell clipped to the rectangle keeps exactly the
// bisectors that cross the rectangle, and each such neighbor still has a
// piece inside, so the local ring neighbors are sufficient for membership
// there too (sites themselves may lie outside the rectangle).

// Adjacency is the region-adjacency table of one subdivision in CSR form.
// Region i's neighbors are Adj[AdjIdx[i]:AdjIdx[i+1]], sorted ascending,
// self-free and symmetric. Sites[i] is region i's generating site (it may
// lie outside Area when the table covers one shard of a larger space).
// IDs[i], when set, is region i's stable global id (the sharded fabric's
// global numbering); nil means the identity mapping.
type Adjacency struct {
	Area   geom.Rect
	Sites  []geom.Point
	IDs    []int32
	AdjIdx []int32
	Adj    []int32
}

// N returns the number of regions covered by the table.
func (a *Adjacency) N() int { return len(a.Sites) }

// GlobalID maps a local region index to its stable global id.
func (a *Adjacency) GlobalID(i int) int32 {
	if a.IDs == nil {
		return int32(i)
	}
	return a.IDs[i]
}

// Neighbors returns region i's neighbor list (shared storage; do not modify).
func (a *Adjacency) Neighbors(i int) []int32 {
	return a.Adj[a.AdjIdx[i]:a.AdjIdx[i+1]]
}

// BuildAdjacency derives the adjacency table from a welded subdivision.
// sites[i] must be region i's generating site. Ring edges name the region on
// their far side by stable key (-1 for the area border); the inverse of the
// subdivision's own key assignment turns those into region indices.
func BuildAdjacency(sub *region.Subdivision, area geom.Rect, sites []geom.Point) (*Adjacency, error) {
	n := sub.N()
	if len(sites) != n {
		return nil, fmt.Errorf("core: adjacency needs %d sites, got %d", n, len(sites))
	}
	keyToRegion := make([]int32, sub.MaxKey()+1)
	for i := range keyToRegion {
		keyToRegion[i] = -1
	}
	for i := 0; i < n; i++ {
		k := sub.Key(i)
		if k < 0 || k >= len(keyToRegion) {
			return nil, fmt.Errorf("core: region %d has key %d outside [0,%d)", i, k, len(keyToRegion))
		}
		if keyToRegion[k] >= 0 {
			return nil, fmt.Errorf("core: regions %d and %d share key %d", keyToRegion[k], i, k)
		}
		keyToRegion[k] = int32(i)
	}
	a := &Adjacency{
		Area:   area,
		Sites:  append([]geom.Point(nil), sites...),
		AdjIdx: make([]int32, n+1),
	}
	var scratch []int32
	for i := 0; i < n; i++ {
		scratch = scratch[:0]
		for _, k := range sub.NbrKeys(i) {
			if k < 0 {
				continue // area border
			}
			if int(k) >= len(keyToRegion) || keyToRegion[k] < 0 {
				return nil, fmt.Errorf("core: region %d names unknown neighbor key %d", i, k)
			}
			j := keyToRegion[k]
			if j == int32(i) {
				return nil, fmt.Errorf("core: region %d is its own neighbor", i)
			}
			scratch = append(scratch, j)
		}
		sort.Slice(scratch, func(x, y int) bool { return scratch[x] < scratch[y] })
		for x, j := range scratch {
			if x > 0 && scratch[x-1] == j {
				continue // the same neighbor can own several ring edges
			}
			a.Adj = append(a.Adj, j)
		}
		a.AdjIdx[i+1] = int32(len(a.Adj))
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Validate checks the structural invariants a broadcast-received or
// snapshot-loaded table must satisfy before any walk trusts it: a monotone
// CSR spine, in-range sorted self-free neighbor lists, symmetry
// (a ∈ adj(b) ⟺ b ∈ adj(a)), finite sites and a nonempty finite area.
func (a *Adjacency) Validate() error {
	n := len(a.Sites)
	if len(a.AdjIdx) != n+1 {
		return fmt.Errorf("core: adjacency spine has %d entries for %d regions", len(a.AdjIdx), n)
	}
	if n > 0 && a.AdjIdx[0] != 0 {
		return fmt.Errorf("core: adjacency spine starts at %d", a.AdjIdx[0])
	}
	if len(a.AdjIdx) > 0 && int(a.AdjIdx[n]) != len(a.Adj) {
		return fmt.Errorf("core: adjacency spine ends at %d, table has %d", a.AdjIdx[n], len(a.Adj))
	}
	for i := 0; i < n; i++ {
		if a.AdjIdx[i] > a.AdjIdx[i+1] {
			return fmt.Errorf("core: adjacency spine not monotone at region %d", i)
		}
		// Bound before slicing: a hostile spine may overrun the table long
		// before the monotone walk reaches the entry that proves it.
		if int(a.AdjIdx[i+1]) > len(a.Adj) {
			return fmt.Errorf("core: adjacency spine overruns the table at region %d", i)
		}
		row := a.Adj[a.AdjIdx[i]:a.AdjIdx[i+1]]
		for x, j := range row {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("core: region %d neighbor %d out of range", i, j)
			}
			if int(j) == i {
				return fmt.Errorf("core: region %d lists itself as neighbor", i)
			}
			if x > 0 && row[x-1] >= j {
				return fmt.Errorf("core: region %d neighbor list not strictly ascending", i)
			}
		}
	}
	for i := 0; i < n; i++ {
		for _, j := range a.Neighbors(i) {
			if !a.hasNeighbor(int(j), int32(i)) {
				return fmt.Errorf("core: adjacency not symmetric: %d ∈ adj(%d) but %d ∉ adj(%d)", j, i, i, j)
			}
		}
	}
	for i, s := range a.Sites {
		if math.IsNaN(s.X) || math.IsInf(s.X, 0) || math.IsNaN(s.Y) || math.IsInf(s.Y, 0) {
			return fmt.Errorf("core: site %d is not finite", i)
		}
	}
	if a.IDs != nil {
		if len(a.IDs) != n {
			return fmt.Errorf("core: adjacency has %d global ids for %d regions", len(a.IDs), n)
		}
		for i, id := range a.IDs {
			if id < 0 {
				return fmt.Errorf("core: region %d has negative global id %d", i, id)
			}
		}
	}
	for _, v := range [4]float64{a.Area.MinX, a.Area.MinY, a.Area.MaxX, a.Area.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: adjacency area is not finite")
		}
	}
	if n > 0 && a.Area.IsEmpty() {
		return fmt.Errorf("core: adjacency area is empty")
	}
	return nil
}

// hasNeighbor reports whether j lists i, by binary search over j's row.
func (a *Adjacency) hasNeighbor(j int, i int32) bool {
	row := a.Adj[a.AdjIdx[j]:a.AdjIdx[j+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == i
}

// Contains reports whether p lies in region i's cell: inside the area and at
// least as close to site i as to every adjacent site. Boundary points are
// counted in (ties allowed), matching the subdivision's inclusive polygons.
func (a *Adjacency) Contains(i int, p geom.Point) bool {
	if !a.Area.Contains(p) {
		return false
	}
	own := p.Dist2(a.Sites[i])
	for _, j := range a.Neighbors(i) {
		if p.Dist2(a.Sites[j]) < own-geom.Eps {
			return false
		}
	}
	return true
}

// Settle walks from region i to a region whose cell contains p: while some
// neighbor's site is nearer to p than the current site (by more than the
// tolerance Contains allows), it steps to the nearest such neighbor. The
// distance to p falls with every step, so the walk ends, and for p in Area
// it ends on a region Contains accepts. Callers use it to repair a seed
// located for a point on the table's border, where a D-tree descent is not
// exact. An out-of-range i is returned unchanged.
func (a *Adjacency) Settle(i int, p geom.Point) int {
	if i < 0 || i >= a.N() {
		return i
	}
	for {
		next, own := i, p.Dist2(a.Sites[i])
		best := own - geom.Eps
		for _, j := range a.Neighbors(i) {
			if d := p.Dist2(a.Sites[j]); d < best {
				next, best = int(j), d
			}
		}
		if next == i {
			return i
		}
		i = next
	}
}

// KNN returns the k regions whose sites are nearest to p, ordered by
// (dist², region id), walking the adjacency graph best-first from seed. The
// seed must be p's containing region for the expansion bound to be sound.
func (a *Adjacency) KNN(seed int, p geom.Point, k int) []int32 {
	n := a.N()
	if k <= 0 || n == 0 || seed < 0 || seed >= n {
		return nil
	}
	if k > n {
		k = n
	}
	visited := make([]bool, n)
	h := adjHeap{items: make([]adjItem, 0, 16)}
	visited[seed] = true
	h.push(adjItem{dist2: p.Dist2(a.Sites[seed]), id: int32(seed)})
	collected := make([]adjItem, 0, k+4)
	// best holds the k smallest dist² collected so far, ascending; the walk
	// may stop once the frontier's nearest site is strictly beyond best[k-1],
	// because every cell with a site that close is already collected: the
	// ≤-radius cell set is connected and contains the seed, so an unvisited
	// member would sit on the frontier at a smaller key.
	best := make([]float64, 0, k)
	for h.len() > 0 {
		it := h.pop()
		if len(best) == k && it.dist2 > best[k-1] {
			break
		}
		collected = append(collected, it)
		if pos := sort.SearchFloat64s(best, it.dist2); pos < k {
			if len(best) < k {
				best = append(best, 0)
			}
			copy(best[pos+1:], best[pos:])
			best[pos] = it.dist2
		}
		for _, j := range a.Neighbors(int(it.id)) {
			if !visited[j] {
				visited[j] = true
				h.push(adjItem{dist2: p.Dist2(a.Sites[j]), id: j})
			}
		}
	}
	sort.Slice(collected, func(x, y int) bool {
		if collected[x].dist2 != collected[y].dist2 {
			return collected[x].dist2 < collected[y].dist2
		}
		return collected[x].id < collected[y].id
	})
	if len(collected) > k {
		collected = collected[:k]
	}
	out := make([]int32, len(collected))
	for i, it := range collected {
		out[i] = it.id
	}
	return out
}

// Window returns the regions whose cells intersect w, sorted ascending,
// flooding the adjacency graph from seed. The seed's cell must intersect w
// (clients center the window on their own position, so their containing
// region qualifies); seed is expanded even when numerically judged out.
func (a *Adjacency) Window(seed int, w geom.Rect) []int32 {
	n := a.N()
	if n == 0 || seed < 0 || seed >= n {
		return nil
	}
	b := w.Intersection(a.Area)
	if b.IsEmpty() {
		return nil
	}
	base := geom.Polygon{
		geom.Pt(b.MinX, b.MinY), geom.Pt(b.MaxX, b.MinY),
		geom.Pt(b.MaxX, b.MaxY), geom.Pt(b.MinX, b.MaxY),
	}
	member := func(i int) bool {
		poly := base
		for _, j := range a.Neighbors(i) {
			poly = geom.ClipHalfPlane(poly, geom.Bisector(a.Sites[i], a.Sites[j]))
			if len(poly) == 0 {
				return false
			}
		}
		return true
	}
	visited := make([]bool, n)
	queue := make([]int32, 0, 16)
	visited[seed] = true
	queue = append(queue, int32(seed))
	var out []int32
	for qi := 0; qi < len(queue); qi++ {
		i := queue[qi]
		in := member(int(i))
		if in {
			out = append(out, i)
		}
		if in || qi == 0 {
			for _, j := range a.Neighbors(int(i)) {
				if !visited[j] {
					visited[j] = true
					queue = append(queue, j)
				}
			}
		}
	}
	sort.Slice(out, func(x, y int) bool { return out[x] < out[y] })
	return out
}

// adjItem orders the best-first frontier by (dist², id).
type adjItem struct {
	dist2 float64
	id    int32
}

func (x adjItem) less(y adjItem) bool {
	if x.dist2 != y.dist2 {
		return x.dist2 < y.dist2
	}
	return x.id < y.id
}

// adjHeap is a plain binary min-heap over adjItem (container/heap would
// force an interface allocation per push on this hot walk).
type adjHeap struct{ items []adjItem }

func (h *adjHeap) len() int { return len(h.items) }

func (h *adjHeap) push(it adjItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].less(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *adjHeap) pop() adjItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].less(h.items[small]) {
			small = l
		}
		if r < len(h.items) && h.items[r].less(h.items[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// --- wire appendix ---------------------------------------------------------
//
// The table rides the broadcast as a self-describing run of index packets in
// front of the D-tree (and behind the channel directory on a sharded
// fabric), mirroring the directory's idiom: packet 0 opens with a fixed
// header carrying its own packet count, so a tuned-in client learns how far
// the appendix extends from one packet and later generations may grow or
// shrink it freely.
//
//	packet 0 header (45 B, little-endian):
//	  magic   [2]B "AJ"
//	  version u8   adjacencyVersion
//	  packets u16  appendix packet count, header included
//	  regions u32  region count N
//	  adjLen  u32  neighbor-table length
//	  area    4xf64 MinX MinY MaxX MaxY
//	body, streamed across the remaining bytes and subsequent packets, each
//	padded to the packet capacity:
//	  adjIdx  (N+1) x u32
//	  adj     adjLen x u32
//	  sites   N x (f64 X, f64 Y)   — full doubles: clients recompute
//	                                 distances bit-identically to the server
//	  ids     N x u32              — global region ids (identity on a
//	                                 single channel)

const (
	adjacencyMagic   = "AJ"
	adjacencyVersion = 1
	adjHeaderSize    = 45
	adjMaxRegions    = 1 << 27 // caps allocation from a hostile header
)

// adjacencyBodySize is the byte length of the streamed body after the header.
func adjacencyBodySize(n, adjLen int) int { return (n+1)*4 + adjLen*4 + n*16 + n*4 }

// EncodePackets serializes the table into capacity-sized packets.
func (a *Adjacency) EncodePackets(capacity int) ([][]byte, error) {
	if capacity < adjHeaderSize {
		return nil, fmt.Errorf("core: packet capacity %d cannot carry the %d-byte adjacency header", capacity, adjHeaderSize)
	}
	n := a.N()
	total := adjHeaderSize + adjacencyBodySize(n, len(a.Adj))
	count := (total + capacity - 1) / capacity
	if count > math.MaxUint16 {
		return nil, fmt.Errorf("core: adjacency appendix needs %d packets (max %d)", count, math.MaxUint16)
	}
	le := binary.LittleEndian
	buf := make([]byte, count*capacity)
	copy(buf[0:2], adjacencyMagic)
	buf[2] = adjacencyVersion
	le.PutUint16(buf[3:], uint16(count))
	le.PutUint32(buf[5:], uint32(n))
	le.PutUint32(buf[9:], uint32(len(a.Adj)))
	le.PutUint64(buf[13:], math.Float64bits(a.Area.MinX))
	le.PutUint64(buf[21:], math.Float64bits(a.Area.MinY))
	le.PutUint64(buf[29:], math.Float64bits(a.Area.MaxX))
	le.PutUint64(buf[37:], math.Float64bits(a.Area.MaxY))
	at := adjHeaderSize
	for _, v := range a.AdjIdx {
		le.PutUint32(buf[at:], uint32(v))
		at += 4
	}
	for _, v := range a.Adj {
		le.PutUint32(buf[at:], uint32(v))
		at += 4
	}
	for _, s := range a.Sites {
		le.PutUint64(buf[at:], math.Float64bits(s.X))
		le.PutUint64(buf[at+8:], math.Float64bits(s.Y))
		at += 16
	}
	for i := 0; i < n; i++ {
		le.PutUint32(buf[at:], uint32(a.GlobalID(i)))
		at += 4
	}
	pkts := make([][]byte, count)
	for i := range pkts {
		pkts[i] = buf[i*capacity : (i+1)*capacity]
	}
	return pkts, nil
}

// AdjacencyPacketCount parses the appendix length from its first packet, so
// a client can fetch the rest (and a point-query client can skip past it).
func AdjacencyPacketCount(pkt0 []byte) (int, error) {
	if len(pkt0) < adjHeaderSize {
		return 0, fmt.Errorf("core: adjacency packet 0 is %d bytes, header needs %d", len(pkt0), adjHeaderSize)
	}
	if string(pkt0[0:2]) != adjacencyMagic {
		return 0, fmt.Errorf("core: bad adjacency magic %q", pkt0[0:2])
	}
	if pkt0[2] != adjacencyVersion {
		return 0, fmt.Errorf("core: adjacency version %d, want %d", pkt0[2], adjacencyVersion)
	}
	count := int(binary.LittleEndian.Uint16(pkt0[3:]))
	if count == 0 {
		return 0, fmt.Errorf("core: adjacency appendix claims zero packets")
	}
	return count, nil
}

// DecodeAdjacency reassembles and validates a table from its appendix
// packets (exactly the run EncodePackets produced, in order).
func DecodeAdjacency(pkts [][]byte) (*Adjacency, error) {
	if len(pkts) == 0 {
		return nil, fmt.Errorf("core: no adjacency packets")
	}
	count, err := AdjacencyPacketCount(pkts[0])
	if err != nil {
		return nil, err
	}
	if count != len(pkts) {
		return nil, fmt.Errorf("core: adjacency appendix has %d packets, header says %d", len(pkts), count)
	}
	le := binary.LittleEndian
	n := int(le.Uint32(pkts[0][5:]))
	adjLen := int(le.Uint32(pkts[0][9:]))
	if n < 1 || n > adjMaxRegions || adjLen < 0 || adjLen > adjMaxRegions {
		return nil, fmt.Errorf("core: adjacency counts %d/%d out of range", n, adjLen)
	}
	capacity := len(pkts[0])
	total := adjHeaderSize + adjacencyBodySize(n, adjLen)
	if want := (total + capacity - 1) / capacity; want != count {
		return nil, fmt.Errorf("core: adjacency counts imply %d packets, header says %d", want, count)
	}
	buf := make([]byte, 0, count*capacity)
	for i, p := range pkts {
		if len(p) != capacity {
			return nil, fmt.Errorf("core: adjacency packet %d is %d bytes, want %d", i, len(p), capacity)
		}
		buf = append(buf, p...)
	}
	a := &Adjacency{
		Area: geom.Rect{
			MinX: math.Float64frombits(le.Uint64(buf[13:])),
			MinY: math.Float64frombits(le.Uint64(buf[21:])),
			MaxX: math.Float64frombits(le.Uint64(buf[29:])),
			MaxY: math.Float64frombits(le.Uint64(buf[37:])),
		},
		Sites:  make([]geom.Point, n),
		IDs:    make([]int32, n),
		AdjIdx: make([]int32, n+1),
		Adj:    make([]int32, adjLen),
	}
	at := adjHeaderSize
	for i := range a.AdjIdx {
		a.AdjIdx[i] = int32(le.Uint32(buf[at:]))
		at += 4
	}
	for i := range a.Adj {
		a.Adj[i] = int32(le.Uint32(buf[at:]))
		at += 4
	}
	for i := range a.Sites {
		a.Sites[i].X = math.Float64frombits(le.Uint64(buf[at:]))
		a.Sites[i].Y = math.Float64frombits(le.Uint64(buf[at+8:]))
		at += 16
	}
	identity := true
	for i := range a.IDs {
		a.IDs[i] = int32(le.Uint32(buf[at:]))
		if a.IDs[i] != int32(i) {
			identity = false
		}
		at += 4
	}
	if identity {
		a.IDs = nil // single-channel tables round-trip to their built form
	}
	if len(a.Adj) == 0 {
		a.Adj = nil // a neighborless table round-trips to its built form too
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// SetAdjacency attaches the table to the arena. ProgramFromFlat then
// broadcasts it as the index appendix, and Snapshot stores that appendix
// ahead of the index packets.
func (ft *FlatTree) SetAdjacency(a *Adjacency) error {
	if a != nil && a.N() != ft.N {
		return fmt.Errorf("core: adjacency covers %d regions, arena has %d", a.N(), ft.N)
	}
	ft.adj = a
	return nil
}

// Adjacency returns the attached table, or nil.
func (ft *FlatTree) Adjacency() *Adjacency { return ft.adj }
