package fabric

import (
	"fmt"

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
// bucket. trace is caller-owned scratch (zero-allocation inner loops in
// the shard sweep); the grown buffer is returned for reuse.
func (f *Fabric) AccessInto(p geom.Point, entry int, u float64, trace []int) (Cost, []int, error) {
	if entry < 0 || entry >= len(f.Shards) {
		return Cost{}, trace, fmt.Errorf("fabric: entry channel %d of %d", entry, len(f.Shards))
	}
	if u < 0 || u >= 1 {
		return Cost{}, trace, fmt.Errorf("fabric: u = %v outside [0, 1)", u)
	}
	es := f.Shards[entry]
	t := u * float64(es.Prog.Sched.CycleLen())
	cost := Cost{Shard: entry}

	// Probe on the entry channel: the first full packet after t.
	cur := float64(int(t) + 1)
	cost.TuneProbe = 1

	// The directory rides at the head of the next index copy.
	idxStart := float64(es.Prog.Sched.NextIndexStart(cur))
	cur = idxStart + float64(f.DirPackets)
	cost.TuneDirectory = f.DirPackets

	target := f.Dir.Route(p)
	cost.Shard = target
	ts := f.Shards[target]
	if target != entry {
		// Hop: retune and probe the owning channel, exactly like an epoch
		// restart re-probes — the wasted directory read stays charged.
		cost.Hops = 1
		cur = float64(int(cur) + 1)
		cost.TuneProbe++
		idxStart = float64(ts.Prog.Sched.NextIndexStart(cur))
	}

	bucket, trace := ts.Flat.LocateInto(p, trace[:0])
	if bucket < 0 {
		return cost, trace, fmt.Errorf("fabric: point %v escapes shard %d", p, target)
	}
	for _, off := range trace {
		at := idxStart + float64(f.DirPackets+off)
		if at < cur {
			// The offset already flew by: wait for the next copy, as the
			// live client does via the NextIndex pointer.
			idxStart = float64(ts.Prog.Sched.NextIndexStart(cur))
			at = idxStart + float64(f.DirPackets+off)
		}
		cur = at + 1
		cost.TuneIndex++
	}
	dataStart := float64(ts.Prog.Sched.NextBucketStart(bucket, cur))
	bp := ts.Prog.Sched.BucketPackets
	cost.TuneData = bp
	cost.Latency = dataStart + float64(bp) - t
	cost.Bucket = bucket
	cost.Global = ts.IDs[bucket]
	return cost, trace, nil
}
