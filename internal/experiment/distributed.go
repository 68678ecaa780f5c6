package experiment

import (
	"fmt"

	"airindex/internal/broadcast"
	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/distidx"
	"airindex/internal/wire"
)

// RunDistributed compares the paper's (1, m) broadcast organization against
// distributed indexing (Imielinski et al.) for the same D-tree, across the
// configured packet capacities. Index names in the result: "D-tree (1,m)"
// and "D-tree (dist)". The query streams are drawn once and each simulation
// loop is sharded across cfg.Workers goroutines (see parallel.go); the
// capacities themselves run sequentially — the distributed layout build
// dominates setup and benefits little from overlap.
func RunDistributed(ds dataset.Dataset, cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	sub, err := ds.Subdivision()
	if err != nil {
		return nil, err
	}
	tree, err := core.Build(sub)
	if err != nil {
		return nil, err
	}
	sampler := NewSampler(sub)
	sampler.ByArea = cfg.ByArea
	streams := newQueryStreams(sampler, cfg)
	q := cfg.Queries
	qf := float64(q)
	costs := make([]accessCost, q)

	var out []Measurement
	for _, capacity := range cfg.Capacities {
		params := wire.DTreeParams(capacity)
		bp := params.DataBucketPackets()
		dataPackets := sub.N() * bp
		optLatency := float64(dataPackets) / 2

		// Shared non-indexing baseline.
		if err := forEachShard(cfg.Workers, q, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				sq := &streams.base[i]
				tm := sq.u * float64(dataPackets)
				c := broadcast.NoIndexAccess(tm, sub.N(), bp, int(sq.want))
				costs[i] = accessCost{tuneTotal: int32(c.TotalTuning())}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		var noIdxTune float64
		for i := range costs {
			noIdxTune += float64(costs[i].tuneTotal)
		}
		noIdxTune /= qf

		// (1, m).
		paged, err := tree.Page(params)
		if err != nil {
			return nil, err
		}
		fp := paged.Flatten()
		m := broadcast.OptimalM(fp.IndexPackets(), dataPackets)
		sched, err := broadcast.NewSchedule(fp.IndexPackets(), sub.N(), bp, m)
		if err != nil {
			return nil, err
		}
		cycleLen := float64(sched.CycleLen())
		if err := forEachShard(cfg.Workers, q, func(lo, hi int) error {
			var buf []int
			for i := lo; i < hi; i++ {
				sq := &streams.idx[i]
				bucket, trace := fp.LocateInto(sq.p, buf)
				buf = trace
				c, err := sched.Access(sq.u*cycleLen,
					broadcast.SearchTrace{Bucket: bucket, IndexOffsets: trace})
				if err != nil {
					return err
				}
				costs[i] = accessCost{lat: c.Latency, tuneIdx: int32(c.TuneIndex), tuneTotal: int32(c.TotalTuning())}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		lat, tuneIdx, tuneTotal := reduceCosts(costs)
		out = append(out, distMeasurement(ds.Name, "D-tree (1,m)", capacity,
			m*fp.IndexPackets(), dataPackets, m,
			lat/qf, tuneIdx/qf, tuneTotal/qf, optLatency, noIdxTune))

		// Distributed indexing.
		dist, err := distidx.New(tree, params)
		if err != nil {
			return nil, fmt.Errorf("distributed at %d bytes: %w", capacity, err)
		}
		distCycle := float64(dist.CycleLen())
		if err := forEachShard(cfg.Workers, q, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				sq := &streams.idx[i]
				c, err := dist.Access(sq.p, sq.u*distCycle)
				if err != nil {
					return err
				}
				costs[i] = accessCost{lat: c.Latency, tuneIdx: int32(c.TuneIndex), tuneTotal: int32(c.TotalTuning())}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		lat, tuneIdx, tuneTotal = reduceCosts(costs)
		out = append(out, distMeasurement(ds.Name, "D-tree (dist)", capacity,
			dist.TotalIndexPackets(), dataPackets, dist.Segments(),
			lat/qf, tuneIdx/qf, tuneTotal/qf, optLatency, noIdxTune))
	}
	return out, nil
}

// reduceCosts sums the per-query slots in query order (keeping the
// floating-point reduction identical to a sequential run).
func reduceCosts(costs []accessCost) (lat, tuneIdx, tuneTotal float64) {
	for i := range costs {
		lat += costs[i].lat
		tuneIdx += float64(costs[i].tuneIdx)
		tuneTotal += float64(costs[i].tuneTotal)
	}
	return lat, tuneIdx, tuneTotal
}

func distMeasurement(dsName, idxName string, capacity, idxPackets, dataPackets, m int,
	lat, tuneIdx, tuneTotal, optLatency, noIdxTune float64) Measurement {
	eff := 0.0
	if overhead := lat - optLatency; overhead > 0 {
		eff = (noIdxTune - tuneTotal) / overhead
	}
	return Measurement{
		Dataset: dsName, Index: idxName, Packet: capacity,
		IndexPackets: idxPackets, DataPackets: dataPackets, M: m,
		AvgLatency: lat, NormLatency: lat / optLatency,
		AvgTuneIndex: tuneIdx, AvgTuneTotal: tuneTotal,
		NormIndexSize: float64(idxPackets) / float64(dataPackets),
		Efficiency:    eff,
		NoIndexTuning: noIdxTune,
	}
}
