package stream

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"airindex/internal/geom"
	"airindex/internal/testutil"
)

// pipeQuery runs one query against Program.Transmit from startSlot over an
// in-memory pipe. A timer closes the pipe, so a client that would doze
// forever fails instead of hanging the test.
func pipeQuery(t *testing.T, prog *Program, startSlot int, p geom.Point) (Result, error) {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		prog.Transmit(srvEnd, startSlot, nil) //nolint:errcheck // ends when the pipe closes
	}()
	timer := time.AfterFunc(5*time.Second, func() { cliEnd.Close() })
	res, err := NewClient(cliEnd, prog.Capacity).Query(p)
	timer.Stop()
	cliEnd.Close()
	srvEnd.Close()
	<-done
	return res, err
}

// TestQueryAcrossSlotWraparound pins slot unwrapping: the 32-bit slot field
// restarts at 0 every 2^32 slots, and a query whose probe, index descent or
// bucket download straddles that wrap must resolve exactly as a query from
// a non-wrapping start slot of the same cycle phase — same bucket, data,
// latency and tuning, its slots shifted by the start offset, and no
// phantom lost slots.
func TestQueryAcrossSlotWraparound(t *testing.T) {
	const capacity = 128
	sub, _ := testutil.RandomVoronoi(t, 200, 9101)
	prog, err := NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	cycle := prog.Sched.CycleLen()
	points := []geom.Point{geom.Pt(3141.5, 2718.25), geom.Pt(8100, 600), geom.Pt(500, 9400)}
	for _, k := range []int{1, 10, cycle / 3} {
		start := 1<<32 - k
		same := start % cycle // same cycle phase, far from the wrap
		for _, p := range points {
			t.Run(fmt.Sprintf("k=%d/%v", k, p), func(t *testing.T) {
				got, err := pipeQuery(t, prog, start, p)
				if err != nil {
					t.Fatalf("query from slot 2^32-%d: %v", k, err)
				}
				want, err := pipeQuery(t, prog, same, p)
				if err != nil {
					t.Fatal(err)
				}
				if got.LostSlots != 0 {
					t.Fatalf("LostSlots = %d across the wrap, want 0", got.LostSlots)
				}
				if got.FirstSlot != start || got.LastSlot <= got.FirstSlot {
					t.Fatalf("slots %d..%d, want an increasing run from %d", got.FirstSlot, got.LastSlot, start)
				}
				if !sub.Regions[got.Bucket].Poly.Contains(p) {
					t.Fatalf("bucket %d does not contain %v", got.Bucket, p)
				}
				if err := VerifyStampedData(got.Data, capacity, got.Bucket); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Data, want.Data) {
					t.Fatal("downloaded data differs from the non-wrapping query's")
				}
				shift := start - same
				got.Data, want.Data = nil, nil
				got.FirstSlot -= shift
				got.LastSlot -= shift
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("result across the wrap\n  %+v\nnon-wrapping query\n  %+v", got, want)
				}
			})
		}
	}
}
