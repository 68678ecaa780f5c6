package fabric

import (
	"fmt"

	"airindex/internal/broadcast"
	"airindex/internal/geom"
)

// Cost is the outcome of one simulated fabric access: latency in slots
// from query issue to the last data packet, tuning in parsed packets,
// split by protocol phase. All channels share one synchronized slot clock
// (the broadcastd fabric drives every shard server off one listener
// process), so hopping costs no clock re-alignment beyond the fresh probe
// it is charged.
type Cost struct {
	Shard  int // channel that answered
	Bucket int // shard-local bucket
	Global int // global data-instance id
	Hops   int // 0 when the entry channel owned the point

	Latency       float64
	TuneProbe     int
	TuneDirectory int // directory packets parsed (replicated prefix of each index copy)
	TuneIndex     int // D-tree packets parsed
	TuneData      int
}

// TotalTuning returns the active-radio packet count across phases.
func (c Cost) TotalTuning() int {
	return c.TuneProbe + c.TuneDirectory + c.TuneIndex + c.TuneData
}

// AccessInto simulates the hopping access protocol on a perfect channel:
// probe the entry channel at time t = u * cycleLen(entry) (u in [0, 1)),
// read the channel directory at the head of the next index copy, hop to
// the owning shard when it differs — a fresh probe there, charged exactly
// like the first — then run the D-tree descent against that shard's index
// copy (offsets shifted past the directory prefix) and download the
// bucket. Each channel's leg is one broadcast.Schedule.Access: without a
// hop the directory packets are the first offsets of the entry channel's
// descent; a hop starts the owning channel's leg when the entry channel's
// directory read ends. trace is caller-owned scratch (zero-allocation inner
// loops in the shard sweep); the grown buffer is returned for reuse.
func (f *Fabric) AccessInto(p geom.Point, entry int, u float64, trace []int) (Cost, []int, error) {
	if entry < 0 || entry >= len(f.Shards) {
		return Cost{}, trace, fmt.Errorf("fabric: entry channel %d of %d", entry, len(f.Shards))
	}
	if u < 0 || u >= 1 {
		return Cost{}, trace, fmt.Errorf("fabric: u = %v outside [0, 1)", u)
	}
	d := f.DirPackets
	es := f.Shards[entry]
	t := u * float64(es.Prog.Sched.CycleLen())
	target := f.Dir.Route(p)
	ts := f.Shards[target]
	bucket, trace := ts.Flat.LocateInto(p, trace)
	if bucket < 0 {
		return Cost{Shard: target}, trace, fmt.Errorf("fabric: point %v escapes shard %d", p, target)
	}
	cost := Cost{Shard: target, Bucket: bucket, Global: ts.IDs[bucket], TuneDirectory: d}
	// The descent reads the owning shard's index copy behind its prefix.
	for i := range trace {
		trace[i] += d
	}
	if target == entry {
		// The directory packets are the first reads of the same index copy.
		for i := 0; i < d; i++ {
			trace = append(trace, 0)
		}
		copy(trace[d:], trace)
		for i := 0; i < d; i++ {
			trace[i] = i
		}
		c, err := ts.Prog.Sched.Access(t, broadcast.SearchTrace{Bucket: bucket, IndexOffsets: trace})
		if err != nil {
			return cost, trace, err
		}
		cost.TuneProbe, cost.TuneIndex, cost.TuneData = c.TuneProbe, c.TuneIndex-d, c.TuneData
		cost.Latency = c.Latency
		return cost, trace, nil
	}
	// Hop: the entry leg is a probe plus the directory at the head of the
	// next index copy — the wasted read stays charged — and the owning
	// channel's leg opens with a fresh probe when it ends.
	hop := float64(es.Prog.Sched.NextIndexStart(float64(int(t)+1)) + d)
	c, err := ts.Prog.Sched.Access(hop, broadcast.SearchTrace{Bucket: bucket, IndexOffsets: trace})
	if err != nil {
		return cost, trace, err
	}
	cost.Hops = 1
	cost.TuneProbe, cost.TuneIndex, cost.TuneData = 1+c.TuneProbe, c.TuneIndex, c.TuneData
	// hop and the leg's end are whole slots: this is the end minus t, exactly.
	cost.Latency = c.Latency + hop - t
	return cost, trace, nil
}
