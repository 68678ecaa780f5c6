package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"airindex/internal/broadcast"
	"airindex/internal/channel"
	"airindex/internal/geom"
	"airindex/internal/testutil"
)

// TestWireCostMatchesSimulator pins the live receiver to the simulator the
// paper figures come from: on a lossless channel, a wire Client's tuning
// per protocol step and its latency must equal broadcast.Schedule.Access
// on the flat index's Locate trace, with the query issued at the client's
// probe slot. Queries tune in at random slots of the cycle; each reads a
// recording of the transmitter from its start slot on.
func TestWireCostMatchesSimulator(t *testing.T) {
	const sites, queries = 300, 300
	sub, _ := testutil.RandomVoronoi(t, sites, 7207)
	for _, capacity := range []int{64, 128, 256, 1024} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			prog, fp, err := CompileDTree(sub, capacity, 0)
			if err != nil {
				t.Fatal(err)
			}
			cycle := prog.Sched.CycleLen()
			frame := headerSize + capacity
			// Starts fall in the first cycle; a lossless query ends within
			// two cycles of its probe.
			stream := recordTransmit(t, prog, 0, channel.Spec{}, 4*cycle*frame)
			rng := rand.New(rand.NewSource(int64(capacity)))
			for q := 0; q < queries; q++ {
				start := rng.Intn(cycle)
				p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
				got, err := NewClient(bytes.NewReader(stream[start*frame:]), capacity).Query(p)
				if err != nil {
					t.Fatalf("query %d at %v from slot %d: %v", q, p, start, err)
				}
				bucket, offsets := fp.Locate(p)
				want, err := prog.Sched.Access(float64(got.FirstSlot), broadcast.SearchTrace{Bucket: bucket, IndexOffsets: offsets})
				if err != nil {
					t.Fatal(err)
				}
				if got.Bucket != bucket || got.FirstSlot != start ||
					got.TuneProbe != want.TuneProbe || got.TuneIndex != want.TuneIndex ||
					got.TuneData != want.TuneData || got.Latency != want.Latency {
					t.Fatalf("query %d at %v from slot %d: wire bucket %d, first slot %d, tuning %d/%d/%d, latency %v; simulator bucket %d, tuning %d/%d/%d, latency %v",
						q, p, start, got.Bucket, got.FirstSlot, got.TuneProbe, got.TuneIndex, got.TuneData, got.Latency,
						bucket, want.TuneProbe, want.TuneIndex, want.TuneData, want.Latency)
				}
			}
		})
	}
}
