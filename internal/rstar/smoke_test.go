package rstar

import (
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

func TestSmokeRStarAir(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	sites := make([]geom.Point, 100)
	for i := range sites {
		sites[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	sub, err := voronoi.Subdivision(area, sites)
	if err != nil {
		t.Fatalf("voronoi: %v", err)
	}
	for _, capacity := range []int{64, 256, 2048} {
		a, err := BuildAir(sub, wire.RStarParams(capacity))
		if err != nil {
			t.Fatalf("build air %d: %v", capacity, err)
		}
		if err := a.Tree.CheckInvariants(); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		sumTrace := 0
		for i := 0; i < 3000; i++ {
			p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			got, trace := a.Locate(p)
			want := sub.Locate(p)
			if got != want && (got < 0 || !sub.Regions[got].Poly.Contains(p)) {
				t.Fatalf("capacity %d query %v: got %d want %d", capacity, p, got, want)
			}
			sumTrace += len(trace)
		}
		t.Logf("capacity=%d packets=%d avgTrace=%.2f", capacity, a.IndexPackets(), float64(sumTrace)/3000)
	}
}
