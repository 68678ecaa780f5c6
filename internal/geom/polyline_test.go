package geom

import (
	"math/rand"
	"testing"
)

func TestPolylineBasics(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(3, 4), Pt(3, 10)}
	if got := pl.Len(); got != 11 {
		t.Errorf("Len = %v", got)
	}
}

func TestChainSegmentsSingleChain(t *testing.T) {
	segs := []Segment{
		Seg(Pt(0, 0), Pt(1, 1)),
		Seg(Pt(1, 1), Pt(2, 0)),
		Seg(Pt(2, 0), Pt(3, 2)),
	}
	chains := new(Chainer).Chain(segs)
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	if len(chains[0]) != 4 {
		t.Fatalf("chain length = %d, want 4", len(chains[0]))
	}
}

func TestChainSegmentsShuffledAndReversed(t *testing.T) {
	// Shuffled order and arbitrary segment directions must still chain.
	rng := rand.New(rand.NewSource(9))
	var segs []Segment
	for i := 0; i < 20; i++ {
		a := Pt(float64(i), float64(i%3))
		b := Pt(float64(i+1), float64((i+1)%3))
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		segs = append(segs, Seg(a, b))
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	chains := new(Chainer).Chain(segs)
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	if got := len(chains[0]); got != 21 {
		t.Fatalf("chain length = %d, want 21", got)
	}
}

func TestChainSegmentsMultipleComponents(t *testing.T) {
	segs := []Segment{
		Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(2, 1)),
		Seg(Pt(10, 10), Pt(11, 12)),
	}
	chains := new(Chainer).Chain(segs)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
}

func TestChainSegmentsClosedLoop(t *testing.T) {
	segs := []Segment{
		Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(10, 0), Pt(10, 10)),
		Seg(Pt(10, 10), Pt(0, 10)), Seg(Pt(0, 10), Pt(0, 0)),
	}
	chains := new(Chainer).Chain(segs)
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	ch := chains[0]
	if len(ch) != 5 || !ch[0].Eq(ch[len(ch)-1]) {
		t.Fatalf("closed loop should repeat first vertex: %v", ch)
	}
}

func TestChainSegmentsJunctionBreaks(t *testing.T) {
	// A Y-junction: three segments meet at one vertex; every chain must
	// terminate there rather than pass through.
	j := Pt(5, 5)
	segs := []Segment{
		Seg(Pt(0, 0), j), Seg(j, Pt(10, 0)), Seg(j, Pt(5, 10)),
	}
	chains := new(Chainer).Chain(segs)
	if len(chains) != 3 {
		t.Fatalf("chains = %d, want 3 (junction must break chains)", len(chains))
	}
	total := 0
	for _, ch := range chains {
		total += len(ch) - 1
	}
	if total != 3 {
		t.Fatalf("chained segments = %d, want 3", total)
	}
}

func TestChainSegmentsPreservesTotalLength(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		var segs []Segment
		var wantLen float64
		n := 2 + rng.Intn(30)
		prev := Pt(rng.Float64()*100, rng.Float64()*100)
		for i := 0; i < n; i++ {
			next := Pt(rng.Float64()*100, rng.Float64()*100)
			segs = append(segs, Seg(prev, next))
			wantLen += prev.Dist(next)
			prev = next
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		var got float64
		for _, ch := range new(Chainer).Chain(segs) {
			got += ch.Len()
		}
		if diff := got - wantLen; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: chained length %v != %v", trial, got, wantLen)
		}
	}
}
