package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
)

// The cut benchmarks measure the generation pipeline: an Apply batch
// through the incremental path (dirty-subtree rebuild, arena patching,
// frame-table reuse) versus what every cut cost before — a full re-weld of
// the live set, a from-scratch D-tree compile, and a cold cycle render.
// Results are recorded in EXPERIMENTS.md, "Record: incremental generation
// cuts", and CI's incremental-cut perf smoke gates the 10k single-move
// cut.
//
// The gated tier uses move-only batches: the steady-state churn shape
// (vehicles reporting new positions), under which the site count — and so
// the root partition's style menu — stays fixed and the dirty-subtree
// rebuild splices every clean subtree. Mixed add/remove batches change the
// region-count parity, which reshuffles the candidate styles at the top of
// the tree and routinely flips the root's winning dimension; a flipped
// winner leaves few old subtrees with a matching leaf set, so those
// generations legitimately pay a near from-scratch compile to stay
// byte-identical. BenchmarkIncrementalCutMixed
// records that regime separately.

var cutSizes = []struct {
	label string
	n     int
}{
	{"1k", 1_000},
	{"10k", 10_000},
	{"50k", 50_000},
}

// benchSwapper bootstraps the serving state once: generation 1 built and
// its cycle rendered, exactly the warm state a live daemon cuts against.
func benchSwapper(b *testing.B, n int) *Swapper {
	b.Helper()
	sw, err := NewSwapper(testArea, testutil.RandomSites(testArea, n, int64(9000+n)), 256, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := sw.Program().RenderedSize(); err != nil {
		b.Fatal(err)
	}
	return sw
}

// moveOps builds a batch of pure position updates: the steady-state churn
// the gated benchmark tier measures.
func moveOps(rng *rand.Rand, sw *Swapper, batch int) []SiteOp {
	ids := sw.LiveSiteIDs()
	ops := make([]SiteOp, 0, batch)
	for i := 0; i < batch; i++ {
		p := geom.Pt(testArea.MinX+rng.Float64()*(testArea.MaxX-testArea.MinX),
			testArea.MinY+rng.Float64()*(testArea.MaxY-testArea.MinY))
		ops = append(ops, SiteOp{Kind: OpMove, ID: ids[rng.Intn(len(ids))], P: p})
	}
	return ops
}

// BenchmarkIncrementalCut times Apply end to end (maintainer mutation,
// incremental compile, patched render, publish bookkeeping) per batch size,
// over move-only batches.
func BenchmarkIncrementalCut(b *testing.B) {
	for _, sz := range cutSizes {
		for _, batch := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("N=%s/batch=%d", sz.label, batch), func(b *testing.B) {
				sw := benchSwapper(b, sz.n)
				rng := rand.New(rand.NewSource(int64(sz.n + batch)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ops := moveOps(rng, sw, batch)
					b.StartTimer()
					if _, _, err := sw.Apply(ops); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIncrementalCutMixed is the same pipeline under mixed
// add/remove/move batches — the regime where parity changes flip the top
// partition styles and some cuts degrade toward a full compile.
func BenchmarkIncrementalCutMixed(b *testing.B) {
	for _, sz := range cutSizes {
		for _, batch := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("N=%s/batch=%d", sz.label, batch), func(b *testing.B) {
				sw := benchSwapper(b, sz.n)
				rng := rand.New(rand.NewSource(int64(sz.n + batch)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ops := randomOps(rng, sw, batch)
					b.StartTimer()
					if _, _, err := sw.Apply(ops); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFromScratchCut times the pre-incremental cut on the same live
// state: snapshot the whole diagram, compile the D-tree program from
// scratch, render the cycle cold.
func BenchmarkFromScratchCut(b *testing.B) {
	for _, sz := range cutSizes {
		b.Run("N="+sz.label, func(b *testing.B) {
			sw := benchSwapper(b, sz.n)
			rng := rand.New(rand.NewSource(int64(sz.n)))
			// One applied batch first, so both benchmarks compile a
			// post-churn diagram rather than the pristine bootstrap.
			if _, _, err := sw.Apply(randomOps(rng, sw, 16)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub, _, err := sw.maint.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				prog, _, err := CompileDTree(sub, 256, sw.comp.ch.M)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := prog.RenderedSize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
