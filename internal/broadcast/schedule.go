// Package broadcast simulates the paper's wireless data-dissemination
// layer: a flat broadcast cycle organized with the (1, m) interleaving
// technique of Imielinski et al., in which the full index is transmitted
// before every 1/m fraction of the data, and the client access protocol
// (initial probe, selective index search, data retrieval) measured in
// packet slots. Access latency and tuning time — the paper's two primary
// metrics — fall directly out of the simulation.
package broadcast

import (
	"fmt"
	"math"
	"sort"
)

// Schedule is one broadcast cycle: m interleaved copies of an index segment
// of IndexPackets packets, with the N data buckets (BucketPackets packets
// each) split across the m data segments in bucket order.
type Schedule struct {
	IndexPackets  int
	NumBuckets    int
	BucketPackets int
	M             int

	cycleLen    int
	indexStarts []int // packet offset of each index copy within the cycle
	bucketPos   []int // packet offset of each bucket's first packet
}

// NewSchedule lays out a (1, m) broadcast cycle. m is clamped to [1, N] so
// every data segment holds at least one bucket.
func NewSchedule(indexPackets, numBuckets, bucketPackets, m int) (*Schedule, error) {
	if indexPackets < 0 || numBuckets <= 0 || bucketPackets <= 0 {
		return nil, fmt.Errorf("broadcast: invalid schedule (index=%d buckets=%d bucketPackets=%d)",
			indexPackets, numBuckets, bucketPackets)
	}
	if m < 1 {
		m = 1
	}
	if m > numBuckets {
		m = numBuckets
	}
	s := &Schedule{
		IndexPackets:  indexPackets,
		NumBuckets:    numBuckets,
		BucketPackets: bucketPackets,
		M:             m,
		indexStarts:   make([]int, 0, m),
		bucketPos:     make([]int, numBuckets),
	}
	pos := 0
	base, extra := numBuckets/m, numBuckets%m
	bucket := 0
	for j := 0; j < m; j++ {
		s.indexStarts = append(s.indexStarts, pos)
		pos += indexPackets
		chunk := base
		if j < extra {
			chunk++
		}
		for i := 0; i < chunk; i++ {
			s.bucketPos[bucket] = pos
			pos += bucketPackets
			bucket++
		}
	}
	s.cycleLen = pos
	return s, nil
}

// CycleLen returns the cycle length in packets.
func (s *Schedule) CycleLen() int { return s.cycleLen }

// DataPackets returns the number of data packets per cycle (the paper's
// "database size" on air; the optimal no-index latency is half of it).
func (s *Schedule) DataPackets() int { return s.NumBuckets * s.BucketPackets }

// IndexStartOf returns the cycle offset at which the j-th index copy
// starts (0 <= j < M).
func (s *Schedule) IndexStartOf(j int) int { return s.indexStarts[j] }

// BucketAt returns which bucket and which of its packets occupies the given
// cycle offset; it panics if the offset falls inside an index copy (callers
// classify index regions via IndexStartOf first).
func (s *Schedule) BucketAt(pos int) (bucket, pkt int) {
	i := sort.SearchInts(s.bucketPos, pos+1) - 1
	if i < 0 || pos >= s.bucketPos[i]+s.BucketPackets {
		panic(fmt.Sprintf("broadcast: offset %d is not inside a data bucket", pos))
	}
	return i, pos - s.bucketPos[i]
}

// NextIndexStart returns the absolute slot of the first index-copy start at
// or after absolute time t (slots from an arbitrary epoch).
func (s *Schedule) NextIndexStart(t float64) int {
	return s.nextOccurrence(s.indexStarts, t)
}

// NextBucketStart returns the absolute slot at which bucket b next starts
// at or after absolute time t. This sits on the Monte Carlo hot path (once
// per simulated query), so it inlines the single-offset case of
// nextOccurrence instead of allocating a one-element slice: for an integer
// offset, "off >= ceil(within-eps)" and "float64(off) >= within-eps" agree,
// so the arithmetic below is exactly nextOccurrence on {off}.
func (s *Schedule) NextBucketStart(b int, t float64) int {
	off := s.bucketPos[b]
	L := float64(s.cycleLen)
	k := math.Floor(t / L)
	within := t - k*L
	if float64(off) >= within-1e-9 {
		return int(k)*s.cycleLen + off
	}
	return (int(k)+1)*s.cycleLen + off
}

// nextOccurrence returns the smallest k*cycleLen + off >= t over all
// offsets (which must be sorted ascending).
func (s *Schedule) nextOccurrence(offsets []int, t float64) int {
	L := float64(s.cycleLen)
	k := math.Floor(t / L)
	within := t - k*L
	i := sort.SearchInts(offsets, int(math.Ceil(within-1e-9)))
	if i < len(offsets) && float64(offsets[i]) >= within-1e-9 {
		return int(k)*s.cycleLen + offsets[i]
	}
	return (int(k)+1)*s.cycleLen + offsets[0]
}

// OptimalM returns the replication factor minimizing expected access
// latency for the (1, m) organization (Imielinski et al.): the probe wait
// grows with Data/m while the broadcast wait grows with m*Index, giving
// m* = sqrt(Data/Index). The result is clamped to at least 1.
func OptimalM(indexPackets, dataPackets int) int {
	if indexPackets <= 0 {
		return 1
	}
	m := int(math.Round(math.Sqrt(float64(dataPackets) / float64(indexPackets))))
	if m < 1 {
		m = 1
	}
	return m
}
