package geom

import (
	"math/rand"
	"reflect"
	"testing"
)

// ChainSegments is the map-based stitcher the Chainer replaced, kept
// verbatim as the test oracle: the Chainer must emit exactly its polylines.
//
// Segments are joined wherever endpoints coincide (within Eps) and each
// vertex joins exactly two segments; junction vertices of degree > 2 act as
// chain breaks, and closed loops are returned with the first vertex repeated
// at the end.
func ChainSegments(segs []Segment) []Polyline {
	if len(segs) == 0 {
		return nil
	}
	type key struct{ x, y int64 }
	quant := func(p Point) key {
		const q = 1 / (4 * Eps)
		return key{int64(p.X*q + 0.5*signOf(p.X)), int64(p.Y*q + 0.5*signOf(p.Y))}
	}
	// Adjacency from quantized endpoint to incident segment indices.
	adj := make(map[key][]int, len(segs)*2)
	for i, s := range segs {
		adj[quant(s.A)] = append(adj[quant(s.A)], i)
		adj[quant(s.B)] = append(adj[quant(s.B)], i)
	}
	used := make([]bool, len(segs))
	var out []Polyline

	// other returns the far endpoint of segment i as seen from point p.
	other := func(i int, p Point) Point {
		if quant(segs[i].A) == quant(p) {
			return segs[i].B
		}
		return segs[i].A
	}
	// extend walks from point p along unused degree-2 vertices, appending
	// vertices to the chain, and returns the extended chain.
	extend := func(chain Polyline, p Point) Polyline {
		for {
			k := quant(p)
			next := -1
			for _, i := range adj[k] {
				if !used[i] {
					next = i
					break
				}
			}
			if next == -1 || len(adj[k]) != 2 {
				return chain
			}
			used[next] = true
			p = other(next, p)
			chain = append(chain, p)
		}
	}

	// First grow chains from junction/terminal vertices so that maximal
	// chains terminate at natural break points.
	for i, s := range segs {
		if used[i] {
			continue
		}
		da, db := len(adj[quant(s.A)]), len(adj[quant(s.B)])
		if da == 2 && db == 2 {
			continue // interior of a chain or loop; handled below
		}
		start, end := s.A, s.B
		if da == 2 { // grow from the terminal end
			start, end = s.B, s.A
		}
		used[i] = true
		chain := extend(Polyline{start, end}, end)
		out = append(out, chain)
	}
	// Remaining unused segments form closed loops of degree-2 vertices.
	for i, s := range segs {
		if used[i] {
			continue
		}
		used[i] = true
		chain := extend(Polyline{s.A, s.B}, s.B)
		out = append(out, chain)
	}
	return out
}

// chainHardCases are the inputs where a stitcher can plausibly diverge from
// the oracle: lattices full of degree-3 and degree-4 junctions, closed
// loops, zero-length segments, repeated segments and endpoints that differ
// by less than Eps.
func chainHardCases() map[string][]Segment {
	cases := map[string][]Segment{
		"empty":  nil,
		"single": {Seg(Pt(0, 0), Pt(1, 1))},
		"star": {
			Seg(Pt(5, 5), Pt(0, 0)), Seg(Pt(10, 0), Pt(5, 5)), Seg(Pt(5, 5), Pt(5, 10)),
			Seg(Pt(0, 10), Pt(5, 5)), Seg(Pt(0, 0), Pt(-3, 1)),
		},
		"two-loops-sharing-a-vertex": {
			Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(1, 1)), Seg(Pt(1, 1), Pt(0, 0)),
			Seg(Pt(0, 0), Pt(-1, 0)), Seg(Pt(-1, 0), Pt(-1, -1)), Seg(Pt(-1, -1), Pt(0, 0)),
		},
		"loop-and-tail": {
			Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(4, 0), Pt(4, 4)), Seg(Pt(4, 4), Pt(0, 4)),
			Seg(Pt(0, 4), Pt(0, 0)), Seg(Pt(4, 4), Pt(8, 8)),
		},
		"zero-length": {
			Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(2, 0)),
			Seg(Pt(3, 3), Pt(3, 3)),
		},
		"zero-length-loop": {Seg(Pt(2, 2), Pt(2, 2))},
		"repeated": {
			Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(0, 0)),
		},
		"within-eps": {
			Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1+Eps/10, 0), Pt(2, 1)),
			Seg(Pt(2, 1-Eps/10), Pt(0, Eps/20)), Seg(Pt(-5e-11, 0), Pt(-1, -1)),
		},
		"negative-quadrant": {
			Seg(Pt(-1, -1), Pt(-2, -1)), Seg(Pt(-2, -1), Pt(-2, -2)), Seg(Pt(-2, -2), Pt(-1, -1)),
		},
	}
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{2, 3, 5} {
		var lattice []Segment
		for i := 0; i <= k; i++ {
			for j := 0; j <= k; j++ {
				if i < k {
					lattice = append(lattice, Seg(Pt(float64(i), float64(j)), Pt(float64(i+1), float64(j))))
				}
				if j < k {
					lattice = append(lattice, Seg(Pt(float64(i), float64(j)), Pt(float64(i), float64(j+1))))
				}
			}
		}
		for s := range lattice {
			if rng.Intn(2) == 0 {
				lattice[s].A, lattice[s].B = lattice[s].B, lattice[s].A
			}
		}
		rng.Shuffle(len(lattice), func(a, b int) { lattice[a], lattice[b] = lattice[b], lattice[a] })
		cases["lattice-"+string(rune('0'+k))] = lattice
	}
	for trial := 0; trial < 40; trial++ {
		cases["random-"+string(rune('A'+trial))] = randomChainInput(rng, 1+rng.Intn(40))
	}
	return cases
}

// randomChainInput draws segments between points of a small lattice, so
// shared endpoints, junctions, loops and zero-length segments are common,
// and jitters some endpoints by less than Eps.
func randomChainInput(rng *rand.Rand, n int) []Segment {
	pt := func() Point {
		p := Pt(float64(rng.Intn(4)), float64(rng.Intn(4)-1))
		if rng.Intn(4) == 0 {
			p.X += (rng.Float64() - 0.5) * Eps / 4
		}
		return p
	}
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Seg(pt(), pt())
	}
	return segs
}

// checkChainerMatchesOracle asserts Chain deep-equals the oracle and Count
// equals the number of emitted points.
func checkChainerMatchesOracle(t *testing.T, c *Chainer, segs []Segment) {
	t.Helper()
	want := ChainSegments(segs)
	got := c.Chain(segs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Chain(%v)\n = %v\nwant %v", segs, got, want)
	}
	points := 0
	for _, pl := range got {
		points += len(pl)
	}
	if n := c.Count(segs); n != points {
		t.Fatalf("Count(%v) = %d, Chain emitted %d points", segs, n, points)
	}
}

func TestChainerMatchesChainSegments(t *testing.T) {
	var c Chainer // one chainer across every case: reuse must not leak state
	for name, segs := range chainHardCases() {
		t.Run(name, func(t *testing.T) { checkChainerMatchesOracle(t, &c, segs) })
	}
}

func TestChainerCountAllocationFree(t *testing.T) {
	segs := chainHardCases()["lattice-5"]
	var c Chainer
	c.Count(segs)
	if allocs := testing.AllocsPerRun(20, func() { c.Count(segs) }); allocs != 0 {
		t.Fatalf("warm Count allocates %.0f times per call", allocs)
	}
}

// FuzzChainSegments decodes bytes into segments on a tiny lattice (five
// bytes each: four coordinates and a sub-Eps jitter selector) and checks
// the Chainer against the oracle.
func FuzzChainSegments(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{2, 2, 2, 2, 0, 0, 0, 2, 2, 1, 2, 2, 4, 0, 0})
	f.Add([]byte{0, 0, 1, 1, 3, 1, 1, 0, 0, 7, 1, 1, 1, 1, 0, 1, 1, 2, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 5*256 {
			data = data[:5*256]
		}
		segs := make([]Segment, 0, len(data)/5)
		for i := 0; i+5 <= len(data); i += 5 {
			b := data[i : i+5]
			a := Pt(float64(b[0]%5)-1, float64(b[1]%5)-1)
			c := Pt(float64(b[2]%5)-1, float64(b[3]%5)-1)
			switch b[4] % 4 {
			case 1:
				a.X += Eps / 8
			case 2:
				c.Y -= Eps / 8
			}
			segs = append(segs, Seg(a, c))
		}
		var c Chainer
		checkChainerMatchesOracle(t, &c, segs)
		checkChainerMatchesOracle(t, &c, segs) // warm reuse
	})
}
