package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/wire"
)

// This file hosts the extension experiments beyond the paper's evaluation:
// skewed access distributions served by the access-weighted D-tree, and
// clients that pin hot index packets in a small cache (the direction of
// Hambrusch et al., which the paper cites as the complementary problem).

// ZipfWeights returns Zipf(theta) access weights over n regions with ranks
// assigned by a seeded random permutation (hot regions spatially scattered).
func ZipfWeights(n int, theta float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	w := make([]float64, n)
	for rank, r := range perm {
		w[r] = 1 / math.Pow(float64(rank+1), theta)
	}
	return w
}

// RunSkewed compares the paper's cardinality-balanced D-tree against the
// access-weighted variant under a Zipf(theta) query distribution. The
// returned measurements carry the variant as the index name.
func RunSkewed(ds dataset.Dataset, cfg Config, theta float64) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	sub, err := ds.Subdivision()
	if err != nil {
		return nil, err
	}
	weights := ZipfWeights(sub.N(), theta, cfg.Seed)
	balanced, err := core.Build(sub)
	if err != nil {
		return nil, err
	}
	weighted, err := core.Build(sub, core.WithAccessWeights(weights))
	if err != nil {
		return nil, err
	}

	sampler := NewSampler(sub)
	sampler.SetWeights(weights)
	b := &Built{Data: ds, Sub: sub, DTree: balanced}

	var out []Measurement
	for _, capacity := range cfg.Capacities {
		params := wire.DTreeParams(capacity)
		bp, err := balanced.Page(params)
		if err != nil {
			return nil, err
		}
		wp, err := weighted.Page(params)
		if err != nil {
			return nil, err
		}
		indexes := []Index{
			dtreeIndex{"balanced", bp.Flatten()},
			dtreeIndex{"weighted", wp.Flatten()},
		}
		ms, err := measureIndexes(b, sampler, indexes, capacity, cfg)
		if err != nil {
			return nil, fmt.Errorf("skewed at %d bytes: %w", capacity, err)
		}
		out = append(out, ms...)
	}
	return out, nil
}

// CacheResult is one cell of the caching experiment: average index-search
// tuning when the client pins the hottest cachePackets index packets.
type CacheResult struct {
	Dataset      string
	Index        string
	Packet       int
	CachePackets int
	AvgTuneIndex float64
	HitRate      float64 // fraction of packet reads served by the cache
}

// RunCached measures how a small client-side cache of hot index packets
// cuts the index-search tuning time. The cache is chosen by access
// frequency over a warmup query stream (an offline-optimal static pin,
// which any LRU-style policy approaches for a static broadcast).
func RunCached(ds dataset.Dataset, capacity int, cacheSizes []int, cfg Config) ([]CacheResult, error) {
	cfg = cfg.withDefaults()
	b, err := BuildWithWorkers(ds, cfg.Seed, cfg.BuildWorkers, cfg.buildOpts()...)
	if err != nil {
		return nil, err
	}
	indexes, err := b.Indexes(capacity)
	if err != nil {
		return nil, err
	}
	sampler := NewSampler(b.Sub)
	sampler.ByArea = cfg.ByArea

	var out []CacheResult
	for _, idx := range indexes {
		// Every index family provides the buffer-reusing fast path; run the
		// warmup and measurement streams through it so neither allocates a
		// trace per query.
		locate := idx.Locate
		var buf []int
		if il, ok := idx.(intoLocator); ok {
			locate = func(p geom.Point) (int, []int) {
				var id int
				id, buf = il.LocateInto(p, buf)
				return id, buf
			}
		}
		// Warmup: rank packets by access frequency.
		freq := make(map[int]int)
		wrng := rand.New(rand.NewSource(cfg.Seed + 7))
		warm := cfg.Queries / 2
		if warm < 2000 {
			warm = 2000
		}
		for q := 0; q < warm; q++ {
			p, _ := sampler.Query(wrng)
			_, trace := locate(p)
			for _, pk := range trace {
				freq[pk]++
			}
		}
		ranked := make([]int, 0, len(freq))
		for pk := range freq {
			ranked = append(ranked, pk)
		}
		sort.Slice(ranked, func(i, j int) bool {
			if freq[ranked[i]] != freq[ranked[j]] {
				return freq[ranked[i]] > freq[ranked[j]]
			}
			return ranked[i] < ranked[j]
		})

		for _, cacheN := range cacheSizes {
			cached := make(map[int]bool, cacheN)
			for i := 0; i < cacheN && i < len(ranked); i++ {
				cached[ranked[i]] = true
			}
			rng := rand.New(rand.NewSource(cfg.Seed + 8))
			var tune, reads, hits float64
			for q := 0; q < cfg.Queries; q++ {
				p, _ := sampler.Query(rng)
				_, trace := locate(p)
				for _, pk := range trace {
					reads++
					if cached[pk] {
						hits++
					} else {
						tune++
					}
				}
			}
			res := CacheResult{
				Dataset: ds.Name, Index: idx.Name(), Packet: capacity,
				CachePackets: cacheN,
				AvgTuneIndex: tune / float64(cfg.Queries),
			}
			if reads > 0 {
				res.HitRate = hits / reads
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// CacheTable renders the caching experiment as a table: rows are cache
// sizes, columns index structures.
func CacheTable(rs []CacheResult) string {
	if len(rs) == 0 {
		return ""
	}
	var sizes []int
	seenSize := map[int]bool{}
	var indexes []string
	seenIdx := map[string]bool{}
	cell := map[[2]interface{}]CacheResult{}
	for _, r := range rs {
		if !seenSize[r.CachePackets] {
			seenSize[r.CachePackets] = true
			sizes = append(sizes, r.CachePackets)
		}
		if !seenIdx[r.Index] {
			seenIdx[r.Index] = true
			indexes = append(indexes, r.Index)
		}
		cell[[2]interface{}{r.CachePackets, r.Index}] = r
	}
	sort.Ints(sizes)

	var bldr []byte
	bldr = append(bldr, fmt.Sprintf("%s — index-search tuning vs client cache (packets pinned), %d B packets\n",
		rs[0].Dataset, rs[0].Packet)...)
	bldr = append(bldr, fmt.Sprintf("%-12s", "cache")...)
	for _, name := range indexes {
		bldr = append(bldr, fmt.Sprintf(" %12s", name)...)
	}
	bldr = append(bldr, '\n')
	for _, sz := range sizes {
		bldr = append(bldr, fmt.Sprintf("%-12d", sz)...)
		for _, name := range indexes {
			r := cell[[2]interface{}{sz, name}]
			bldr = append(bldr, fmt.Sprintf(" %12.3f", r.AvgTuneIndex)...)
		}
		bldr = append(bldr, '\n')
	}
	return string(bldr)
}

// SetWeights makes the sampler draw regions proportionally to weights.
func (s *Sampler) SetWeights(weights []float64) {
	cum := make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	s.weighted = cum
}

// queryWeighted draws a region from the weighted distribution.
func (s *Sampler) queryWeighted(rng *rand.Rand) (geom.Point, int) {
	total := s.weighted[len(s.weighted)-1]
	x := rng.Float64() * total
	r := sort.SearchFloat64s(s.weighted, x)
	if r >= len(s.weighted) {
		r = len(s.weighted) - 1
	}
	return s.PointIn(rng, r), r
}

// RenderSkew renders the skew comparison.
func RenderSkew(ms []Measurement, datasetName string, theta float64) string {
	out := fmt.Sprintf("Zipf(%.1f) access — balanced vs access-weighted D-tree\n", theta)
	out += Table(ms, datasetName, MetricTuneIndex)
	return out
}
