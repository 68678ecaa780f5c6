package stream

import (
	"testing"

	"airindex/internal/testutil"
)

// BenchmarkBootstrap times the from-scratch bootstrap every broadcast pays
// before its first frame: NewSwapper's Voronoi diagram, region weld, D-tree
// build, paging, flatten and cycle program, at the paper's N and the live
// benchmark's 10k sites over 128-byte packets.
func BenchmarkBootstrap(b *testing.B) {
	for _, size := range cutSizes[:2] {
		b.Run("N="+size.label, func(b *testing.B) {
			sites := testutil.RandomSites(testArea, size.n, int64(9000+size.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewSwapper(testArea, sites, 128, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
