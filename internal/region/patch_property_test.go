package region_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/testutil"
	"airindex/internal/voronoi"
)

const tol = region.DefaultWeldTol

// patcherPair drives the flat Patcher and the map-keyed reference through
// the same generations and requires identical output: the vertex slab,
// every region's key, ring, neighbour keys and polygon, the canonical
// dirty set, and the verdicts of Validate and the reference validator.
type patcherPair struct {
	flat *region.Patcher
	ref  *region.RefPatcher
	gens int
}

func newPatcherPair(area geom.Rect) *patcherPair {
	return &patcherPair{flat: region.NewPatcher(area), ref: region.NewRefPatcher(area)}
}

// newFinePatcherPair gives the flat Patcher the finest bucket grid (four
// weld cells a side on the grid cases' area), so bucket edges often fall
// between a point and the vertices its weld and flood must see.
func newFinePatcherPair(area geom.Rect) *patcherPair {
	return &patcherPair{flat: region.NewFinePatcher(area), ref: region.NewRefPatcher(area)}
}

// step patches both and reports whether they succeeded; after a failure
// (which must be shared) both are broken.
func (pp *patcherPair) step(t testing.TB, keys []int, polys []geom.Polygon, dirty, removed []int) bool {
	t.Helper()
	pp.gens++
	got, gotDirty, gotErr := pp.flat.Patch(keys, polys, dirty, removed)
	want, wantDirty, wantErr := pp.ref.Patch(keys, polys, dirty, removed)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("generation %d: flat error %v, reference error %v", pp.gens, gotErr, wantErr)
	}
	if gotErr != nil {
		return false
	}
	requireSameSubdivision(t, got, want)
	if !slices.Equal(gotDirty, wantDirty) {
		t.Fatalf("generation %d: canonical dirty %v, reference %v", pp.gens, gotDirty, wantDirty)
	}
	return true
}

func requireSameSubdivision(t testing.TB, got, want *region.Subdivision) {
	t.Helper()
	if !slices.Equal(got.Verts, want.Verts) {
		t.Fatalf("vertex slabs differ: %d vs %d vertices", len(got.Verts), len(want.Verts))
	}
	if got.N() != want.N() {
		t.Fatalf("%d regions, reference %d", got.N(), want.N())
	}
	for i := range want.Regions {
		if got.Key(i) != want.Key(i) || !slices.Equal(got.Ring(i), want.Ring(i)) ||
			!slices.Equal(got.NbrKeys(i), want.NbrKeys(i)) || !slices.Equal(got.Regions[i].Poly, want.Regions[i].Poly) {
			t.Fatalf("region %d (key %d): ring %v nbr %v, reference (key %d) ring %v nbr %v",
				i, got.Key(i), got.Ring(i), got.NbrKeys(i), want.Key(i), want.Ring(i), want.NbrKeys(i))
		}
	}
	if gotErr, wantErr := got.Validate(), want.RefValidate(); (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Validate %v, reference validator %v", gotErr, wantErr)
	}
}

// requireNewMatchesReference compares New with the reference weld on the
// same polygons, with and without T-junction repair.
func requireNewMatchesReference(t testing.TB, area geom.Rect, polys []geom.Polygon) {
	t.Helper()
	for _, opts := range [][]region.Option{nil, {region.WithTJunctionRepair()}} {
		got, gotErr := region.New(area, polys, opts...)
		want, wantErr := region.RefNew(area, polys, opts...)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("New error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr == nil {
			requireSameSubdivision(t, got, want)
		}
	}
}

// voronoiChurn bootstraps both patchers from the Voronoi cells of the
// first n of pool and applies steps batches of random adds, removes and
// moves, new positions drawn in order from the rest of pool.
func voronoiChurn(t testing.TB, pool []geom.Point, n, steps int, seed int64) {
	t.Helper()
	m, err := voronoi.NewMaintainer(testutil.BigArea, pool[:n])
	if err != nil {
		t.Fatal(err)
	}
	pp := newPatcherPair(m.Area())
	ids, polys := m.LiveCells()
	if !pp.step(t, ids, polys, ids, nil) {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	next := n
	for s := 0; s < steps && next < len(pool); s++ {
		m.BeginBatch()
		for op := 1 + rng.Intn(3); op > 0 && next < len(pool); op-- {
			live, _ := m.LiveSites()
			id := live[rng.Intn(len(live))]
			switch rng.Intn(4) {
			case 0:
				_, err = m.Add(pool[next])
				next++
			case 1:
				if m.Len() > 8 {
					err = m.Remove(id)
				}
			default:
				_, err = m.Move(id, pool[next])
				next++
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		dirty, removed := m.BatchDelta()
		ids, polys = m.LiveCells()
		if !pp.step(t, ids, polys, dirty, removed) {
			return
		}
	}
	requireNewMatchesReference(t, m.Area(), polys)
}

// gridChurn tiles a g x g grid of squares of side 40 tol. Every copy of a
// corner (one per square using it) is displaced by its own offset from
// off, so copies of one corner may or may not weld, and several vertices
// can compete for one point. Each step re-draws, removes or re-inserts a
// few squares; with dup set it may also copy a neighbour's polygon, a
// shared directed edge both patchers must reject. fine selects the finest
// bucket grid for the flat Patcher.
func gridChurn(t testing.TB, g int, off func(*rand.Rand) float64, steps int, seed int64, dup, fine bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const s = 40 * tol
	area := geom.Rect{MaxX: float64(g) * s, MaxY: float64(g) * s}
	square := func(k int) geom.Polygon {
		x, y := float64(k%g)*s, float64(k/g)*s
		corner := func(cx, cy float64) geom.Point { return geom.Pt(cx+off(rng), cy+off(rng)) }
		return geom.Polygon{corner(x, y), corner(x+s, y), corner(x+s, y+s), corner(x, y+s)}
	}
	polys := make([]geom.Polygon, g*g)
	live := make([]bool, g*g)
	var keys []int
	for k := range polys {
		polys[k], live[k] = square(k), true
		keys = append(keys, k)
	}
	pp := newPatcherPair(area)
	if fine {
		pp = newFinePatcherPair(area)
	}
	if !pp.step(t, keys, polys, keys, nil) {
		return
	}
	for step := 0; step < steps; step++ {
		var dirty, removed []int
		for op := 1 + rng.Intn(3); op > 0; op-- {
			k := rng.Intn(g * g)
			switch {
			case slices.Contains(dirty, k) || slices.Contains(removed, k):
			case !live[k]:
				polys[k], live[k] = square(k), true
				dirty = append(dirty, k)
			case rng.Intn(4) == 0 && len(keys) > g:
				live[k] = false
				removed = append(removed, k)
			case dup && rng.Intn(8) == 0 && k+1 < g*g && live[k+1]:
				polys[k] = slices.Clone(polys[k+1])
				dirty = append(dirty, k)
			default:
				polys[k] = square(k)
				dirty = append(dirty, k)
			}
		}
		slices.Sort(dirty)
		slices.Sort(removed)
		keys = keys[:0]
		var cur []geom.Polygon
		for k := range polys {
			if live[k] {
				keys = append(keys, k)
				cur = append(cur, polys[k])
			}
		}
		if !pp.step(t, keys, cur, dirty, removed) {
			return
		}
		if step == steps-1 {
			requireNewMatchesReference(t, area, cur)
		}
	}
}

// jitterOff displaces a corner copy by 0.5-2 tol either way, so copies of
// one corner lie up to 4 tol apart and the weld's tie rule decides.
func jitterOff(rng *rand.Rand) float64 {
	d := tol * (0.5 + 1.5*rng.Float64())
	if rng.Intn(2) == 0 {
		return -d
	}
	return d
}

// chainOff puts a copy 0.45 tol below a weld-cell boundary, or 0.5 or 1.4
// tol above it: neighbouring choices weld, the outer two do not, so a point
// can weld to a vertex two weld cells away from a point it is near.
func chainOff(rng *rand.Rand) float64 { return [3]float64{-0.45, 0.5, 1.4}[rng.Intn(3)] * tol }

// cellOff keeps corners on multiples of tol (weld-cell boundaries) and
// moves a copy by at most one cell.
func cellOff(rng *rand.Rand) float64 { return float64(rng.Intn(3)-1) * tol }

// TestPatcherMatchesReference runs the flat Patcher and the map-keyed
// reference through the same churn on uniform Voronoi sites, on
// testutil.DegenerateSites (lattice and diagonal families), on grids whose
// corner copies are jittered 0.5-2 tol apart, and on grids whose corners
// lie exactly on weld-cell boundaries.
func TestPatcherMatchesReference(t *testing.T) {
	const n, steps = 300, 60
	for seed := int64(0); seed < 2; seed++ {
		voronoiChurn(t, testutil.RandomSites(testutil.BigArea, n+3*steps, 700+seed), n, steps, seed)
		// The families hold 121 and 100 points, so the degenerate pool stays
		// under 200 sites.
		voronoiChurn(t, testutil.DegenerateSites(190, seed), 120, steps, seed)
	}
	for seed := int64(0); seed < 40; seed++ {
		for _, fine := range []bool{false, true} {
			gridChurn(t, 10, jitterOff, steps, seed, seed%8 == 7, fine)
			gridChurn(t, 10, cellOff, steps, seed, seed%8 == 7, fine)
			gridChurn(t, 10, chainOff, steps, seed, seed%8 == 7, fine)
		}
	}
}

// FuzzPatcherMatchesReference explores the same comparison from a seed, a
// generator choice and a step count, duplicated polygons included.
func FuzzPatcherMatchesReference(f *testing.F) {
	for mode := uint8(0); mode < 5; mode++ {
		f.Add(int64(mode), mode, uint8(20))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode, steps uint8) {
		steps %= 40 // keeps the degenerate pool under 200 sites
		switch mode % 5 {
		case 0:
			gridChurn(t, 6, jitterOff, int(steps), seed, true, seed%2 == 0)
		case 1:
			gridChurn(t, 6, cellOff, int(steps), seed, true, seed%2 == 0)
		case 2:
			gridChurn(t, 6, chainOff, int(steps), seed, true, seed%2 == 0)
		case 3:
			voronoiChurn(t, testutil.RandomSites(testutil.BigArea, 40+3*int(steps), seed), 40, int(steps), seed)
		default:
			voronoiChurn(t, testutil.DegenerateSites(40+3*int(steps), seed), 40, int(steps), seed)
		}
	})
}

// TestPatcherRetainedHeap pins what a Patcher keeps after bootstrapping the
// live benchmark's 10k-site tiling, measured like the stream package's
// TestRenderPatchedRetainedHeap. The flat layout retains ~5.4 MiB here;
// the map-keyed Patcher it replaced retained ~10 MiB.
func TestPatcherRetainedHeap(t *testing.T) {
	const bound = 6.5
	ds := dataset.LargeUniform(10_000)
	m, err := voronoi.NewMaintainer(ds.Area, ds.Sites)
	if err != nil {
		t.Fatal(err)
	}
	ids, polys := m.LiveCells()
	var before, after runtime.MemStats
	heap := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	heap(&before)
	p := region.NewPatcher(ds.Area)
	if _, _, err := p.Patch(ids, polys, ids, nil); err != nil {
		t.Fatal(err)
	}
	heap(&after)
	runtime.KeepAlive(p)
	runtime.KeepAlive(m)
	mib := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("bootstrap Patcher retains %.2f MiB", mib)
	if mib > bound {
		t.Fatalf("bootstrap Patcher retains %.2f MiB, bound %.1f MiB", mib, bound)
	}
}

// TestPatcherVertexSlabBounded: under a long run of single-site moves the
// vertex slab stays within a constant factor of the live vertices, because
// each move re-welds a whole neighbourhood under fresh vertex ids and the
// dead ones are compacted away.
func TestPatcherVertexSlabBounded(t *testing.T) {
	const n, moves = 300, 600
	m, err := voronoi.NewMaintainer(testutil.BigArea, testutil.RandomSites(testutil.BigArea, n, 730))
	if err != nil {
		t.Fatal(err)
	}
	p := region.NewPatcher(m.Area())
	ids, polys := m.LiveCells()
	sub, _, err := p.Patch(ids, polys, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(731))
	for i := 0; i < moves; i++ {
		m.BeginBatch()
		if _, err := m.Move(ids[rng.Intn(len(ids))], geom.Pt(rng.Float64()*testutil.BigArea.W(), rng.Float64()*testutil.BigArea.H())); err != nil {
			t.Fatal(err)
		}
		dirty, removed := m.BatchDelta()
		ids, polys = m.LiveCells()
		if sub, _, err = p.Patch(ids, polys, dirty, removed); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	live := map[int]bool{}
	for i := range sub.Regions {
		for _, v := range sub.Ring(i) {
			live[v] = true
		}
	}
	t.Logf("after %d moves: %d vertices in the slab, %d live", moves, len(sub.Verts), len(live))
	if len(sub.Verts) > 4*len(live) {
		t.Fatalf("after %d moves the vertex slab holds %d vertices for %d live ones (bound 4x)", moves, len(sub.Verts), len(live))
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}
