// Package experiment is the paper's evaluation harness (Section 5): it
// builds the four index structures over the three datasets, interleaves
// each with the data under the (1, m) broadcast organization with the
// optimal m, drives Monte Carlo point queries through the client access
// protocol, and reports the access-latency, tuning-time and
// indexing-efficiency series of Figures 10-13.
package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/rstar"
	"airindex/internal/traptree"
	"airindex/internal/triantree"
	"airindex/internal/wire"
)

// Index is the uniform view the harness takes of a paged air index.
type Index interface {
	// Name is the curve label ("D-tree", "R*-tree", ...).
	Name() string
	// IndexPackets is the broadcast size of the index segment in packets.
	IndexPackets() int
	// SizeBytes is the occupied (pre-padding) index size in bytes.
	SizeBytes() int
	// Locate resolves a point query, returning the data region id and the
	// index-segment packet offsets downloaded, in access order.
	Locate(p geom.Point) (int, []int)
}

// Built bundles the packet-size-independent structures for one dataset so
// sweeps over packet capacities reuse them.
type Built struct {
	Data  dataset.Dataset
	Sub   *region.Subdivision
	DTree *core.Tree
	Trian *triantree.Tree
	Trap  *traptree.Map

	mu         sync.Mutex
	indexCache map[int]*indexCacheEntry
}

// indexCacheEntry caches Indexes for one packet capacity. The entry is
// created under Built.mu but built inside its own Once, so concurrent
// sweeps over different capacities page in parallel while repeated
// requests for the same capacity share one build.
type indexCacheEntry struct {
	once    sync.Once
	indexes []Index
	err     error
}

// BuildOpt tunes Build/BuildWithWorkers.
type BuildOpt func(*buildCfg)

type buildCfg struct {
	baselines bool
}

// WithoutBaselines skips the serial trian-tree and trap-tree baseline
// builders — at 50k sites they cost ~24 s each for indexes the product
// path never serves. A Built constructed without baselines pages only the
// D-tree and R*-tree families; Trian and Trap stay nil.
func WithoutBaselines() BuildOpt {
	return func(c *buildCfg) { c.baselines = false }
}

// Build constructs the subdivision and the packet-independent index
// structures for a dataset. The trap-tree's random insertion order derives
// from seed.
func Build(ds dataset.Dataset, seed int64, opts ...BuildOpt) (*Built, error) {
	return BuildWithWorkers(ds, seed, 0, opts...)
}

// BuildWithWorkers is Build with an explicit D-tree build worker count
// (<= 0 means one per CPU; the tree is identical at any count). The
// subdivision is derived first — every family consumes it — and the
// packet-independent index families then build concurrently; each family is
// deterministic on its own, so the concurrency never changes any result.
func BuildWithWorkers(ds dataset.Dataset, seed int64, buildWorkers int, opts ...BuildOpt) (*Built, error) {
	cfg := buildCfg{baselines: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	sub, err := ds.Subdivision()
	if err != nil {
		return nil, err
	}
	b := &Built{Data: ds, Sub: sub}
	builders := []func() error{
		func() error {
			dt, err := core.Build(sub, core.WithBuildWorkers(buildWorkers))
			if err != nil {
				return fmt.Errorf("%s: d-tree: %w", ds.Name, err)
			}
			b.DTree = dt
			return nil
		},
	}
	if cfg.baselines {
		builders = append(builders,
			func() error {
				tr, err := triantree.Build(sub)
				if err != nil {
					return fmt.Errorf("%s: trian-tree: %w", ds.Name, err)
				}
				b.Trian = tr
				return nil
			},
			func() error {
				tp, err := traptree.Build(sub, rand.New(rand.NewSource(seed)))
				if err != nil {
					return fmt.Errorf("%s: trap-tree: %w", ds.Name, err)
				}
				b.Trap = tp
				return nil
			},
		)
	}
	if err := gather(builders...); err != nil {
		return nil, err
	}
	return b, nil
}

// gather runs the given tasks concurrently and waits for all of them;
// the error of the lowest-indexed failure is returned, so the surfaced
// error does not depend on goroutine scheduling.
func gather(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Indexes pages the structures for one packet capacity (and builds the
// capacity-dependent R*-tree), in the paper's comparison order. Results
// are cached per capacity; the returned slice is shared, so callers must
// treat it as read-only.
func (b *Built) Indexes(capacity int) ([]Index, error) {
	b.mu.Lock()
	if b.indexCache == nil {
		b.indexCache = make(map[int]*indexCacheEntry)
	}
	e, ok := b.indexCache[capacity]
	if !ok {
		e = &indexCacheEntry{}
		b.indexCache[capacity] = e
	}
	b.mu.Unlock()
	e.once.Do(func() { e.indexes, e.err = b.buildIndexes(capacity) })
	return e.indexes, e.err
}

// buildIndexes pages the index families for one capacity concurrently;
// paging is read-only over the built structures and the R*-tree bulk-load
// is deterministic, so the slice is identical to a sequential build. A
// Built constructed with WithoutBaselines pages only the D-tree and
// R*-tree; the two baseline families are skipped.
func (b *Built) buildIndexes(capacity int) ([]Index, error) {
	var (
		dp  *core.Paged
		trp *triantree.Paged
		tpp *traptree.Paged
		ra  *rstar.AirIndex
	)
	tasks := []func() error{
		func() (err error) {
			if dp, err = b.DTree.Page(wire.DTreeParams(capacity)); err != nil {
				return fmt.Errorf("d-tree page(%d): %w", capacity, err)
			}
			return nil
		},
		func() (err error) {
			if ra, err = rstar.BuildAir(b.Sub, wire.RStarParams(capacity)); err != nil {
				return fmt.Errorf("r*-tree(%d): %w", capacity, err)
			}
			return nil
		},
	}
	if b.Trian != nil && b.Trap != nil {
		tasks = append(tasks,
			func() (err error) {
				if trp, err = b.Trian.Page(wire.DecompositionParams(capacity)); err != nil {
					return fmt.Errorf("trian-tree page(%d): %w", capacity, err)
				}
				return nil
			},
			func() (err error) {
				if tpp, err = b.Trap.Page(wire.DecompositionParams(capacity)); err != nil {
					return fmt.Errorf("trap-tree page(%d): %w", capacity, err)
				}
				return nil
			},
		)
	}
	if err := gather(tasks...); err != nil {
		return nil, err
	}
	// The D-tree is served from its flat arena, which answers as the wire
	// client does; the pointer tree is only the construction intermediate.
	fp := dp.Flatten()
	if trp == nil {
		return []Index{dtreeIndex{"D-tree", fp}, rstarIndex{ra}}, nil
	}
	return []Index{
		dtreeIndex{"D-tree", fp},
		trianIndex{trp},
		trapIndex{tpp},
		rstarIndex{ra},
	}, nil
}

// dtreeIndex serves a D-tree from its flat arena under a curve label.
type dtreeIndex struct {
	name string
	fp   *core.FlatPaged
}

func (d dtreeIndex) Name() string                     { return d.name }
func (d dtreeIndex) IndexPackets() int                { return d.fp.IndexPackets() }
func (d dtreeIndex) SizeBytes() int                   { return d.fp.SizeBytes() }
func (d dtreeIndex) Locate(p geom.Point) (int, []int) { return d.fp.Locate(p) }
func (d dtreeIndex) LocateInto(p geom.Point, trace []int) (int, []int) {
	return d.fp.LocateInto(p, trace)
}

type trianIndex struct{ pg *triantree.Paged }

func (t trianIndex) Name() string                     { return "trian-tree" }
func (t trianIndex) IndexPackets() int                { return t.pg.IndexPackets() }
func (t trianIndex) SizeBytes() int                   { return t.pg.Layout.SizeBytes() }
func (t trianIndex) Locate(p geom.Point) (int, []int) { return t.pg.Locate(p) }
func (t trianIndex) LocateInto(p geom.Point, trace []int) (int, []int) {
	return t.pg.LocateInto(p, trace)
}

type trapIndex struct{ pg *traptree.Paged }

func (t trapIndex) Name() string                     { return "trap-tree" }
func (t trapIndex) IndexPackets() int                { return t.pg.IndexPackets() }
func (t trapIndex) SizeBytes() int                   { return t.pg.Layout.SizeBytes() }
func (t trapIndex) Locate(p geom.Point) (int, []int) { return t.pg.Locate(p) }
func (t trapIndex) LocateInto(p geom.Point, trace []int) (int, []int) {
	return t.pg.LocateInto(p, trace)
}

type rstarIndex struct{ a *rstar.AirIndex }

func (r rstarIndex) Name() string                     { return "R*-tree" }
func (r rstarIndex) IndexPackets() int                { return r.a.IndexPackets() }
func (r rstarIndex) SizeBytes() int                   { return r.a.SizeBytes() }
func (r rstarIndex) Locate(p geom.Point) (int, []int) { return r.a.Locate(p) }
func (r rstarIndex) LocateInto(p geom.Point, trace []int) (int, []int) {
	return r.a.LocateInto(p, trace)
}
