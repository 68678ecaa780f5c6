package fabric

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/voronoi"
)

// degenerateFamilies are site generators whose Voronoi edges and vertices
// land exactly on the kd split lines: Partition splits halfway between two
// sorted site coordinates, which on a lattice is a Voronoi edge (or, for
// tied coordinates, a line through sites), and on the diagonal the split
// lines cross where the bisectors do.
var degenerateFamilies = []struct {
	name string
	site func(rng *rand.Rand) geom.Point
}{
	{"lattice", func(rng *rand.Rand) geom.Point {
		return geom.Pt(1000*float64(rng.Intn(11)), 1000*float64(rng.Intn(11)))
	}},
	{"diagonal", func(rng *rand.Rand) geom.Point {
		k := float64(rng.Intn(100))
		return geom.Pt(100*k, 100*k)
	}},
}

// distinctSites draws n distinct sites from a family.
func distinctSites(rng *rand.Rand, n int, site func(*rand.Rand) geom.Point) []geom.Point {
	seen := make(map[geom.Point]bool, n)
	out := make([]geom.Point, 0, n)
	for len(out) < n {
		if p := site(rng); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// uniformQueries samples n uniform points of the area.
func uniformQueries(rng *rand.Rand, area geom.Rect, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = randomPoint(rng, area)
	}
	return out
}

// requireAnswersInRegion routes every query through the directory, locates
// it in the owning shard's arena, and requires the answer's global cell
// (ids[i] owns polys[i], ids ascending) to contain the query.
func requireAnswersInRegion(t *testing.T, label string, shard func(ch int) *Shard, dir *Directory, ids []int, polys []geom.Polygon, queries []geom.Point) {
	t.Helper()
	for _, p := range queries {
		ch := dir.Route(p)
		sh := shard(ch)
		local, _ := sh.Flat.Locate(p)
		if local < 0 {
			t.Fatalf("%s: %v unresolved in shard %d", label, p, ch)
		}
		gid := sh.IDs[local]
		i := sort.SearchInts(ids, gid)
		if i >= len(ids) || ids[i] != gid {
			t.Fatalf("%s: %v -> global %d via shard %d, not a live site", label, p, gid, ch)
		}
		if !polys[i].Contains(p) {
			t.Fatalf("%s: %v -> global %d via shard %d, whose cell does not contain it", label, p, gid, ch)
		}
	}
}

// TestFabricDegenerateSplitLines drives the fabric on lattice and diagonal
// sites at several shard counts, the single channel (S = 1) included: the
// from-scratch build, a snapshot round trip, and a swapper through 20 churn batches, each compared with the
// raw-cell from-scratch build. Every sampled answer must name a cell that
// contains the query, and the only refusal allowed is the maintainer's
// "duplicate of live site" error (it has no sentinel, so it is matched by
// text). The queries are uniform: a query exactly on a split line lies on
// the edge of its shard's area, where the D-tree descent is not yet exact
// (ROADMAP item 5, border misses).
func TestFabricDegenerateSplitLines(t *testing.T) {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	const capacity = 128
	for fi, fam := range degenerateFamilies {
		for _, S := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/S=%d", fam.name, S), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*fi + S)))
				sites := distinctSites(rng, 40, fam.site)

				f, err := Build(area, sites, S, capacity, Options{})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				cells, err := voronoi.Cells(area, sites)
				if err != nil {
					t.Fatal(err)
				}
				built := func(ch int) *Shard { return f.Shards[ch] }
				requireAnswersInRegion(t, "build", built, f.Dir, siteIDs(len(sites)), cells, uniformQueries(rng, area, 400))

				dir := t.TempDir()
				if err := f.WriteSnapshotDir(dir); err != nil {
					t.Fatal(err)
				}
				got, err := RestoreSnapshotDir(area, sites, S, capacity, dir, Options{})
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				requireSameFabric(t, got, f)

				sw, err := NewSwapper(area, sites, S, capacity, Options{})
				if err != nil {
					t.Fatalf("swapper: %v", err)
				}
				requireShardsMatchFresh(t, "bootstrap", sw)
				current := func(ch int) *Shard { return sw.Current(ch).Shard }
				refused := 0
				for batch := 0; batch < 20; batch++ {
					label := fmt.Sprintf("batch %d", batch)
					ops := siteBatch(rng, sw, 1+rng.Intn(3), func() geom.Point { return fam.site(rng) })
					if _, _, err := sw.Apply(ops); err != nil {
						if !strings.Contains(err.Error(), "duplicate of live site") {
							t.Fatalf("%s: %v", label, err)
						}
						refused++
					}
					if sw.Pending() {
						t.Fatalf("%s: fabric left behind the maintainer", label)
					}
					requireShardsMatchFresh(t, label, sw)
					liveIDs, livePolys := sw.maint.LiveCells()
					requireAnswersInRegion(t, label, current, sw.dir, liveIDs, livePolys, uniformQueries(rng, area, 200))
				}
				if refused == 0 {
					t.Error("no batch drew a duplicate of a live site")
				}
			})
		}
	}
}

// TestArenaWireAgreeOnSplitLines queries exactly on the kd split lines of
// fabrics over lattice and diagonal sites, where a query lies on the edge of
// its shard's area. It pins only that each shard's arena and the wire
// client decoding the shard's packets agree, in answer and in trace; that
// such a query can still land in a cell that does not contain it is the
// open split-line misroute (ROADMAP.md, "Right answers on degenerate
// inputs").
func TestArenaWireAgreeOnSplitLines(t *testing.T) {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	const capacity = 128
	for fi, fam := range degenerateFamilies {
		for _, S := range []int{2, 3, 4, 8} {
			rng := rand.New(rand.NewSource(int64(2000*fi + S)))
			f, err := Build(area, distinctSites(rng, 40, fam.site), S, capacity, Options{})
			if err != nil {
				t.Fatalf("%s S=%d: build: %v", fam.name, S, err)
			}
			packets := make([][][]byte, len(f.Shards))
			for ch, sh := range f.Shards {
				if packets[ch], err = sh.Flat.EncodePackets(); err != nil {
					t.Fatal(err)
				}
			}
			var trace []int
			for _, n := range f.Dir.Nodes {
				if n.Axis == axisLeaf {
					continue
				}
				for at := 0.0; at <= area.MaxX; at += 50 {
					p := geom.Pt(n.Split, at)
					if n.Axis == axisY {
						p = geom.Pt(at, n.Split)
					}
					ch := f.Dir.Route(p)
					var got int
					got, trace = f.Shards[ch].Flat.LocateInto(p, trace)
					if len(packets[ch]) == 0 {
						continue // single-region shard: no index on air
					}
					want, wantTrace, err := core.ClientLocate(packets[ch], capacity, p)
					if err != nil {
						t.Fatalf("%s S=%d: %v on shard %d: %v", fam.name, S, p, ch, err)
					}
					if got != want || fmt.Sprint(trace) != fmt.Sprint(wantTrace) {
						t.Fatalf("%s S=%d: %v on shard %d: arena (%d, %v), wire (%d, %v)",
							fam.name, S, p, ch, got, trace, want, wantTrace)
					}
				}
			}
		}
	}
}
