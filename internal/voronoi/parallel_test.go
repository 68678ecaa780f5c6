package voronoi

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"airindex/internal/geom"
)

// TestParallelBootstrapIdentity pins the parallel cell constructor to the
// serial loop: with one processor buildCells runs the ids in order on the
// calling goroutine, with four it spreads chunks over workers, and every
// product must come out the same — NewMaintainer's cells, per-cell clip
// metadata, reverse clip index and batch deltas, and Cells' polygons, which
// must also equal the one-bucket sorted path. Inputs with duplicate sites
// must fail with the same error, that of the lowest failing id.
func TestParallelBootstrapIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	atProcs := func(procs int, f func()) {
		runtime.GOMAXPROCS(procs)
		f()
	}
	for _, n := range []int{1000, 10000} {
		sites := randomSites(n, int64(n)+77)
		var ms [2]*Maintainer
		var cells [2][]geom.Polygon
		for k, procs := range []int{1, 4} {
			atProcs(procs, func() {
				m, err := NewMaintainer(area, sites)
				if err != nil {
					t.Fatalf("n=%d procs=%d: %v", n, procs, err)
				}
				c, err := Cells(area, sites)
				if err != nil {
					t.Fatalf("n=%d procs=%d: Cells: %v", n, procs, err)
				}
				ms[k], cells[k] = m, c
			})
		}
		serial, parallel := ms[0], ms[1]
		if !reflect.DeepEqual(serial.cells, parallel.cells) {
			t.Fatalf("n=%d: maintainer cells differ between 1 and 4 procs", n)
		}
		if !reflect.DeepEqual(serial.meta, parallel.meta) || !reflect.DeepEqual(serial.breaks, parallel.breaks) {
			t.Fatalf("n=%d: cell metadata differs between 1 and 4 procs", n)
		}
		if !reflect.DeepEqual(serial.clippedBy, parallel.clippedBy) {
			t.Fatalf("n=%d: reverse clip index differs between 1 and 4 procs", n)
		}
		if !reflect.DeepEqual(cells[0], cells[1]) || !reflect.DeepEqual(cells[0], serial.cells) {
			t.Fatalf("n=%d: Cells differs between 1 and 4 procs or from the maintainer", n)
		}
		if n <= 1000 { // the sorted path is quadratic; 1k sites suffice
			sorted, err := cellsSorted(area, sites)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cells[1], sorted) {
				t.Fatalf("n=%d: parallel Cells differs from the sorted path", n)
			}
		}
		// The same batch on both maintainers reports the same delta.
		var deltas [2][2][]int
		for k, m := range ms {
			m.BeginBatch()
			for i := 0; i < 20; i++ {
				id := (i * 7919) % n
				if _, err := m.Move(id, geom.Pt(sites[id].Y, sites[id].X)); err != nil {
					t.Fatalf("n=%d move %d: %v", n, id, err)
				}
			}
			if err := m.Remove(n / 2); err != nil {
				t.Fatal(err)
			}
			deltas[k][0], deltas[k][1] = m.BatchDelta()
		}
		if !reflect.DeepEqual(deltas[0], deltas[1]) || len(deltas[0][0]) == 0 {
			t.Fatalf("n=%d: batch deltas differ or are empty: %v vs %v", n, deltas[0], deltas[1])
		}
	}

	// Two duplicate pairs in different chunks: both settings must report
	// the lower one, as the serial loop does.
	dup := randomSites(1000, 91)
	dup[700] = dup[3]
	dup[950] = dup[600]
	var errs [2][2]string
	for k, procs := range []int{1, 4} {
		atProcs(procs, func() {
			if _, err := NewMaintainer(area, dup); err != nil {
				errs[k][0] = err.Error()
			}
			if _, err := Cells(area, dup); err != nil {
				errs[k][1] = err.Error()
			}
		})
	}
	if errs[0] != errs[1] {
		t.Fatalf("duplicate-site errors differ: 1 proc %q, 4 procs %q", errs[0], errs[1])
	}
	for _, msg := range errs[0] {
		if !strings.Contains(msg, "duplicate sites 3 and 700") {
			t.Fatalf("duplicate-site error %q does not name the lowest failing id", msg)
		}
	}
}
