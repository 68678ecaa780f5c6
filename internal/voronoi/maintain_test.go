package voronoi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"airindex/internal/geom"
)

// checkAgainstRebuild verifies the maintainer's cells equal a from-scratch
// diagram of the live sites (area-wise, which pins the geometry).
func checkAgainstRebuild(t *testing.T, m *Maintainer) {
	t.Helper()
	ids, sites := m.LiveSites()
	want, err := Cells(area, sites)
	if err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		got, err := m.Cell(id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Area()-want[k].Area()) > 1e-6 {
			t.Fatalf("site %d: incremental area %v, rebuilt %v", id, got.Area(), want[k].Area())
		}
		if !got.Contains(sites[k]) {
			t.Fatalf("site %d outside its incremental cell", id)
		}
	}
	// Total coverage.
	var sum float64
	for _, id := range ids {
		c, _ := m.Cell(id)
		sum += c.Area()
	}
	if math.Abs(sum-area.Area()) > 1e-6*area.Area() {
		t.Fatalf("live cells cover %v of %v", sum, area.Area())
	}
}

func TestMaintainerAdd(t *testing.T) {
	m, err := NewMaintainer(area, randomSites(30, 501))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(502))
	for i := 0; i < 40; i++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		if _, err := m.Add(p); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if m.Len() != 70 {
		t.Fatalf("Len = %d", m.Len())
	}
	checkAgainstRebuild(t, m)
}

func TestMaintainerRemove(t *testing.T) {
	m, err := NewMaintainer(area, randomSites(60, 503))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(504))
	removed := map[int]bool{}
	for i := 0; i < 35; i++ {
		id := rng.Intn(60)
		if removed[id] {
			continue
		}
		if err := m.Remove(id); err != nil {
			t.Fatalf("remove %d: %v", id, err)
		}
		removed[id] = true
	}
	checkAgainstRebuild(t, m)
	for id := range removed {
		if _, err := m.Cell(id); err == nil {
			t.Fatalf("removed site %d still has a cell", id)
		}
		if err := m.Remove(id); err == nil {
			t.Fatalf("double remove of %d succeeded", id)
		}
	}
}

func TestMaintainerInterleaved(t *testing.T) {
	m, err := NewMaintainer(area, randomSites(25, 505))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(506))
	live := make(map[int]bool)
	for i := 0; i < 25; i++ {
		live[i] = true
	}
	for op := 0; op < 120; op++ {
		if rng.Float64() < 0.5 || len(live) < 3 {
			id, err := m.Add(geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
			if err != nil {
				t.Fatalf("op %d add: %v", op, err)
			}
			live[id] = true
		} else {
			var pick int
			k := rng.Intn(len(live))
			for id := range live {
				if k == 0 {
					pick = id
					break
				}
				k--
			}
			if err := m.Remove(pick); err != nil {
				t.Fatalf("op %d remove %d: %v", op, pick, err)
			}
			delete(live, pick)
		}
		if op%30 == 29 {
			checkAgainstRebuild(t, m)
		}
	}
	checkAgainstRebuild(t, m)

	// The snapshot must build a valid subdivision and index end to end.
	sub, ids, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != len(live) || len(ids) != len(live) {
		t.Fatalf("snapshot has %d regions, want %d", sub.N(), len(live))
	}
	for q := 0; q < 3000; q++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		r := sub.Locate(p)
		if r < 0 {
			t.Fatalf("snapshot missed %v", p)
		}
		s, err := m.Site(ids[r])
		if err != nil {
			t.Fatal(err)
		}
		_, liveSites := m.LiveSites()
		best := math.Inf(1)
		for _, q2 := range liveSites {
			if d := p.Dist(q2); d < best {
				best = d
			}
		}
		if p.Dist(s)-best > 1e-6 {
			t.Fatalf("snapshot region for %v is not the nearest site", p)
		}
	}
}

func TestMaintainerErrors(t *testing.T) {
	m, err := NewMaintainer(area, randomSites(3, 507))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(geom.Pt(-1, -1)); err == nil {
		t.Error("outside add should fail")
	}
	p, _ := m.Site(0)
	if _, err := m.Add(p); err == nil {
		t.Error("duplicate add should fail")
	}
	if err := m.Remove(99); err == nil {
		t.Error("bad id remove should fail")
	}
	m.Remove(0)
	m.Remove(1)
	if err := m.Remove(2); err == nil {
		t.Error("removing the last site should fail")
	}
}

func TestMaintainerMove(t *testing.T) {
	m, err := NewMaintainer(area, randomSites(20, 508))
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Move(5, geom.Pt(123, 456))
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Errorf("move should keep the site id stable, got %d", id)
	}
	c, err := m.Cell(id)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(geom.Pt(123, 456)) {
		t.Error("moved site outside its new cell")
	}
	checkAgainstRebuild(t, m)
}

// requireBitIdentical asserts every live maintained cell is bitwise equal —
// vertex count and exact float64 coordinates — to the cell a from-scratch
// Cells rebuild of the live site set produces. This is the invariant the
// live broadcast hot swap (stream.Swapper) relies on: a program built from
// a Maintainer snapshot must be byte-identical to one built from scratch.
func requireBitIdentical(t *testing.T, m *Maintainer, ctx string) {
	t.Helper()
	ids, sites := m.LiveSites()
	want, err := Cells(area, sites)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", ctx, err)
	}
	for k, id := range ids {
		got := m.cells[id]
		if len(got) != len(want[k]) {
			t.Fatalf("%s: site %d: %d vertices incremental, %d rebuilt", ctx, id, len(got), len(want[k]))
		}
		for v := range got {
			if got[v] != want[k][v] {
				t.Fatalf("%s: site %d vertex %d: incremental %v, rebuilt %v", ctx, id, v, got[v], want[k][v])
			}
		}
	}
}

// TestMaintainerBitIdenticalProperty drives random add/remove/move
// sequences through the Maintainer across several seeds and population
// scales (spanning the sorted-path and grid-path regimes of Cells, and
// forcing regrids) and requires bit-identical cells after every operation
// batch.
func TestMaintainerBitIdenticalProperty(t *testing.T) {
	for _, tc := range []struct {
		n    int
		ops  int
		seed int64
	}{
		{8, 120, 601},   // below gridMinSites: the Cells reference takes the sorted path; the Maintainer still clips through its grid
		{40, 200, 602},  // grid path for both
		{150, 300, 603}, // grid path, heavier neighborhoods
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		m, err := NewMaintainer(area, randomSites(tc.n, tc.seed+7))
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]bool{}
		for i := 0; i < tc.n; i++ {
			live[i] = true
		}
		pick := func() int {
			k := rng.Intn(len(live))
			for id := range live {
				if k == 0 {
					return id
				}
				k--
			}
			panic("unreachable")
		}
		requireBitIdentical(t, m, "initial")
		for op := 0; op < tc.ops; op++ {
			ctx := ""
			switch r := rng.Float64(); {
			case r < 0.40 || len(live) < 4:
				id, err := m.Add(geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
				if err != nil {
					t.Fatalf("n=%d op %d add: %v", tc.n, op, err)
				}
				live[id] = true
				ctx = fmt.Sprintf("n=%d op %d add -> %d", tc.n, op, id)
			case r < 0.70:
				id := pick()
				if err := m.Remove(id); err != nil {
					t.Fatalf("n=%d op %d remove %d: %v", tc.n, op, id, err)
				}
				delete(live, id)
				ctx = fmt.Sprintf("n=%d op %d remove %d", tc.n, op, id)
			default:
				id := pick()
				nid, err := m.Move(id, geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
				if err != nil {
					t.Fatalf("n=%d op %d move %d: %v", tc.n, op, id, err)
				}
				delete(live, id)
				live[nid] = true
				ctx = fmt.Sprintf("n=%d op %d move %d -> %d", tc.n, op, id, nid)
			}
			// Checking after every op keeps the failure context tight; it is
			// what makes this a property test rather than an endpoint check.
			requireBitIdentical(t, m, ctx)
		}
	}
}
