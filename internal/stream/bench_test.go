package stream

import (
	"bufio"
	"io"
	"testing"

	"airindex/internal/channel"
	"airindex/internal/testutil"
)

func benchProgram(b *testing.B, n, capacity int) *Program {
	b.Helper()
	sub, _ := testutil.RandomVoronoi(b, n, int64(n)*7+3)
	prog, err := NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkTransmitHotPath measures the per-frame cost of the transmit hot
// path exactly as the live server runs it: no fault middleware, shared
// server metrics attached — every frame outcome is counted. bytes/op is
// the wire rate; allocs/op must be 0 (the counts are published into
// pre-resolved counters once per flush; TestTransmitHotPathZeroAlloc
// enforces the same contract as a hard test failure).
func BenchmarkTransmitHotPath(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	m := NewMetrics()
	tx, err := prog.transmitter(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	bw := bufio.NewWriterSize(io.Discard, txBufSize)
	b.SetBytes(int64(headerSize + prog.Capacity))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.transmitSlot(bw, i, i, 1); err != nil {
			b.Fatal(err)
		}
	}
	tx.flush(bw) //nolint:errcheck // publishes the pending counts
	if got := m.FramesWritten.Load(); got != int64(b.N) {
		b.Fatalf("metrics counted %d frames, wrote %d", got, b.N)
	}
}

// TestTransmitHotPathZeroAlloc pins the zero-allocation contract of the
// instrumented transmit path: with metrics enabled, transmitting a frame
// on the perfect-channel path allocates nothing.
func TestTransmitHotPathZeroAlloc(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 200, 1403)
	prog, err := NewDTreeProgram(sub, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	tx, err := prog.transmitter(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(io.Discard, txBufSize)
	slot := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if err := tx.transmitSlot(bw, slot, slot, 1); err != nil {
			t.Fatal(err)
		}
		slot++
	})
	if allocs != 0 {
		t.Fatalf("instrumented transmit hot path allocates %.1f times per frame, want 0", allocs)
	}
	if m.FramesWritten.Load() == 0 || m.BytesWritten.Load() == 0 {
		t.Fatal("metrics did not count the transmitted frames")
	}
}

// BenchmarkTransmitPerfectChannel measures the per-frame cost of the
// transmit hot path with no fault middleware — the path every connection
// of the live server runs for every slot. bytes/op is the wire rate;
// allocs/op is the regression guard (0 with the rendered-cycle cache).
func BenchmarkTransmitPerfectChannel(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	tx, err := prog.transmitter(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	bw := bufio.NewWriterSize(io.Discard, txBufSize)
	b.SetBytes(int64(headerSize + prog.Capacity))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.transmitSlot(bw, i, i, 1); err != nil {
			b.Fatal(err)
		}
	}
	bw.Flush() //nolint:errcheck
}

// BenchmarkTransmitLossyChannel measures the fault-channel path: the
// middleware drops or corrupts frames in place in the write buffer.
func BenchmarkTransmitLossyChannel(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	spec := channel.Spec{Loss: 0.05, Burst: 4, Corrupt: 0.01, Seed: 1}
	stats := &channel.Stats{}
	tx, err := prog.transmitter(spec.Factory(stats)(), nil)
	if err != nil {
		b.Fatal(err)
	}
	bw := bufio.NewWriterSize(io.Discard, txBufSize)
	b.SetBytes(int64(headerSize + prog.Capacity))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.transmitSlot(bw, i, i, 1); err != nil {
			b.Fatal(err)
		}
	}
	bw.Flush() //nolint:errcheck
}

// BenchmarkRenderCycle measures the one-time cost of rendering a full
// broadcast cycle (the table the zero-allocation path serves from).
func BenchmarkRenderCycle(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err := renderCycle(prog)
		if err != nil {
			b.Fatal(err)
		}
		if rc.cycleLen() == 0 {
			b.Fatal("empty cycle")
		}
	}
}
