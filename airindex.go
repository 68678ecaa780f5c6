// Package airindex is an energy-efficient air-indexing library for querying
// location-dependent data in mobile broadcast environments, reproducing
// Xu, Zheng, Lee & Lee, "Energy Efficient Index for Querying
// Location-Dependent Data in Mobile Broadcast Environments" (ICDE 2003).
//
// A broadcast server owns a set of point sites (data instances such as
// "nearest hospital" answers); each site's valid scope is its Voronoi cell
// over a rectangular service area. The library builds an air index over the
// scopes — the paper's D-tree by default, or one of its evaluated baselines
// (Kirkpatrick's trian-tree, the trapezoidal-map trap-tree, the R*-tree) —
// pages it into fixed-size packets, interleaves index and data with the
// (1, m) organization, and simulates the client access protocol to measure
// access latency and tuning time.
//
// Quick start:
//
//	sys, err := airindex.New(sites, airindex.Config{PacketCapacity: 512})
//	item, _ := sys.Locate(airindex.Pt(3120, 4475))    // which data instance answers
//	cost, _ := sys.Access(airindex.Pt(3120, 4475), t) // full protocol simulation
package airindex

import (
	"fmt"
	"math/rand"

	"airindex/internal/broadcast"
	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/rstar"
	"airindex/internal/traptree"
	"airindex/internal/triantree"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

// Point is a location in the two-dimensional service area.
type Point = geom.Point

// Rect is an axis-aligned rectangle (the service area).
type Rect = geom.Rect

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// DefaultArea is the service area used when Config.Area is zero: a
// 10000 x 10000 square.
var DefaultArea = Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

// IndexKind selects the air-index structure.
type IndexKind int

const (
	// DTree is the paper's contribution (the default).
	DTree IndexKind = iota
	// TrianTree is Kirkpatrick's planar point-location hierarchy.
	TrianTree
	// TrapTree is the randomized-incremental trapezoidal map.
	TrapTree
	// RStarTree is the R*-tree with the added exact-shape layer.
	RStarTree
)

func (k IndexKind) String() string {
	switch k {
	case DTree:
		return "D-tree"
	case TrianTree:
		return "trian-tree"
	case TrapTree:
		return "trap-tree"
	case RStarTree:
		return "R*-tree"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// Config tunes a System. The zero value gives the paper's defaults: a
// D-tree over Voronoi valid scopes, 512-byte packets, 1 KB data instances,
// and the latency-optimal (1, m) replication factor.
type Config struct {
	// Area is the service area (DefaultArea when zero).
	Area Rect
	// Index selects the structure (DTree when zero).
	Index IndexKind
	// PacketCapacity is the packet size in bytes (512 when zero).
	PacketCapacity int
	// DataInstanceSize is the size of one data instance (1024 when zero).
	DataInstanceSize int
	// M fixes the (1, m) replication factor; 0 picks the optimum.
	M int
	// Seed drives the randomized trap-tree insertion order (and nothing
	// else); 0 means 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Area.IsEmpty() || c.Area.Area() == 0 {
		c.Area = DefaultArea
	}
	if c.PacketCapacity == 0 {
		c.PacketCapacity = 512
	}
	if c.DataInstanceSize == 0 {
		c.DataInstanceSize = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// AccessCost is the simulated cost of one query under the client access
// protocol: latency in packet slots from query issue to data receipt, and
// tuning (active listening) split per protocol step.
type AccessCost = broadcast.AccessCost

// System is a broadcast service: valid scopes, a paged air index, and the
// (1, m) broadcast schedule.
type System struct {
	cfg   Config
	sub   *region.Subdivision
	sched *broadcast.Schedule

	locate func(geom.Point) (int, []int)
	idxPk  int
	idxB   int
}

// New derives Voronoi valid scopes for the sites and builds the configured
// air index over them.
func New(sites []Point, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	sub, err := voronoi.Subdivision(cfg.Area, sites)
	if err != nil {
		return nil, err
	}
	return NewFromSubdivision(sub, cfg)
}

// NewFromScopes builds a System over explicitly supplied valid scopes
// (polygons, given as vertex rings, that must exactly tile the area).
func NewFromScopes(scopes [][]Point, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	polys := make([]geom.Polygon, len(scopes))
	for i, s := range scopes {
		polys[i] = geom.Polygon(s)
	}
	sub, err := region.New(cfg.Area, polys, region.WithTJunctionRepair())
	if err != nil {
		return nil, err
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return NewFromSubdivision(sub, cfg)
}

// NewFromSubdivision builds a System over a prepared subdivision.
func NewFromSubdivision(sub *region.Subdivision, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	s := &System{cfg: cfg, sub: sub}
	switch cfg.Index {
	case DTree:
		t, err := core.Build(sub)
		if err != nil {
			return nil, err
		}
		params := wire.DTreeParams(cfg.PacketCapacity)
		params.DataInstanceSize = cfg.DataInstanceSize
		pg, err := t.Page(params)
		if err != nil {
			return nil, err
		}
		fp := pg.Flatten()
		s.locate, s.idxPk, s.idxB = fp.Locate, fp.IndexPackets(), fp.SizeBytes()
	case TrianTree:
		t, err := triantree.Build(sub)
		if err != nil {
			return nil, err
		}
		params := wire.DecompositionParams(cfg.PacketCapacity)
		params.DataInstanceSize = cfg.DataInstanceSize
		pg, err := t.Page(params)
		if err != nil {
			return nil, err
		}
		s.locate, s.idxPk, s.idxB = pg.Locate, pg.IndexPackets(), pg.Layout.SizeBytes()
	case TrapTree:
		m, err := traptree.Build(sub, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		params := wire.DecompositionParams(cfg.PacketCapacity)
		params.DataInstanceSize = cfg.DataInstanceSize
		pg, err := m.Page(params)
		if err != nil {
			return nil, err
		}
		s.locate, s.idxPk, s.idxB = pg.Locate, pg.IndexPackets(), pg.Layout.SizeBytes()
	case RStarTree:
		params := wire.RStarParams(cfg.PacketCapacity)
		params.DataInstanceSize = cfg.DataInstanceSize
		a, err := rstar.BuildAir(sub, params)
		if err != nil {
			return nil, err
		}
		s.locate, s.idxPk, s.idxB = a.Locate, a.IndexPackets(), a.SizeBytes()
	default:
		return nil, fmt.Errorf("airindex: unknown index kind %v", cfg.Index)
	}

	params := wire.DTreeParams(cfg.PacketCapacity)
	params.DataInstanceSize = cfg.DataInstanceSize
	bucketPackets := params.DataBucketPackets()
	m := cfg.M
	if m <= 0 {
		m = broadcast.OptimalM(s.idxPk, sub.N()*bucketPackets)
	}
	sched, err := broadcast.NewSchedule(s.idxPk, sub.N(), bucketPackets, m)
	if err != nil {
		return nil, err
	}
	s.sched = sched
	return s, nil
}

// N returns the number of data instances.
func (s *System) N() int { return s.sub.N() }

// Locate answers a point query: the id of the data instance whose valid
// scope contains p. Queries must lie within the service area.
func (s *System) Locate(p Point) (int, error) {
	if !s.sub.Area.Contains(p) {
		return 0, fmt.Errorf("airindex: query %v outside the service area %+v", p, s.sub.Area)
	}
	id, _ := s.locate(p)
	if id < 0 {
		return 0, fmt.Errorf("airindex: no valid scope contains %v", p)
	}
	return id, nil
}

// Access simulates the full client access protocol for a query issued at
// absolute time t (in packet slots).
func (s *System) Access(p Point, t float64) (AccessCost, error) {
	if !s.sub.Area.Contains(p) {
		return AccessCost{}, fmt.Errorf("airindex: query %v outside the service area %+v", p, s.sub.Area)
	}
	id, trace := s.locate(p)
	if id < 0 {
		return AccessCost{}, fmt.Errorf("airindex: no valid scope contains %v", p)
	}
	return s.sched.Access(t, broadcast.SearchTrace{Bucket: id, IndexOffsets: trace})
}

// ValidScope returns the vertex ring of data instance id's valid scope.
func (s *System) ValidScope(id int) ([]Point, error) {
	if id < 0 || id >= s.sub.N() {
		return nil, fmt.Errorf("airindex: instance %d out of range [0,%d)", id, s.sub.N())
	}
	poly := s.sub.Regions[id].Poly
	out := make([]Point, len(poly))
	copy(out, poly)
	return out, nil
}

// Leg is one stretch of a trajectory during which a single data instance
// is the valid answer.
type Leg struct {
	Instance int
	T        float64 // entry parameter along the trajectory, in [0, 1)
	At       Point   // entry location
}

// Trajectory returns the sequence of data instances valid along the
// straight path from a to b, with the exact points where the answer
// changes — the continuous-query primitive for moving clients. It requires
// the default D-tree index.
func (s *System) Trajectory(a, b Point) ([]Leg, error) {
	if s.cfg.Index != DTree {
		return nil, fmt.Errorf("airindex: trajectory queries require the D-tree index (got %v)", s.cfg.Index)
	}
	crossings, err := core.CrossedRegions(s.sub, a, b)
	if err != nil {
		return nil, err
	}
	out := make([]Leg, len(crossings))
	for i, c := range crossings {
		out[i] = Leg{Instance: c.Region, T: c.T, At: c.At}
	}
	return out, nil
}

// Stats summarizes the broadcast organization.
type Stats struct {
	Index            IndexKind
	N                int // data instances
	PacketCapacity   int
	IndexPackets     int // one index copy, in packets
	IndexBytes       int // occupied index bytes
	DataPackets      int // data per cycle, in packets
	M                int // (1, m) replication factor
	CyclePackets     int
	OptimalLatency   float64 // packets: half a data-only broadcast
	IndexSizeRatio   float64 // on-air index bytes / on-air data bytes
	BucketPackets    int
	DataInstanceSize int
}

// Stats reports the broadcast organization of the system.
func (s *System) Stats() Stats {
	d := s.sched.DataPackets()
	return Stats{
		Index:            s.cfg.Index,
		N:                s.sub.N(),
		PacketCapacity:   s.cfg.PacketCapacity,
		IndexPackets:     s.idxPk,
		IndexBytes:       s.idxB,
		DataPackets:      d,
		M:                s.sched.M,
		CyclePackets:     s.sched.CycleLen(),
		OptimalLatency:   float64(d) / 2,
		IndexSizeRatio:   float64(s.idxPk) / float64(d),
		BucketPackets:    s.sched.BucketPackets,
		DataInstanceSize: s.cfg.DataInstanceSize,
	}
}
