package stream

import (
	"testing"
	"time"

	"airindex/internal/channel"
	"airindex/internal/obs"
	"airindex/internal/testutil"
)

// TestServerAndClientObservability drives queries through a live TCP
// server with the full observability layer attached and checks that every
// layer reported: wire-side frame counters, connection accounting, swap
// counters and latency, client latency/tuning distributions, and per-query
// Probe→Answer traces whose slots are monotone.
func TestServerAndClientObservability(t *testing.T) {
	const capacity = 256
	sw, srv, _ := startSwapServer(t, 50, capacity, 5001, func(s *Server) {
		s.StartSlot = func() int { return 0 }
	})
	sm := srv.Metrics()

	cm := NewClientMetrics()
	traces := obs.NewTraceLog(64)
	client, err := Dial(srv.Addr().String(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Metrics = cm
	client.Traces = traces

	points := testutil.QueryPoints(testArea, 10, 5002)
	for _, p := range points {
		if _, err := client.Query(p); err != nil {
			t.Fatalf("query %v: %v", p, err)
		}
	}

	if got := cm.Queries.Load(); got != int64(len(points)) {
		t.Fatalf("client queries counter = %d, want %d", got, len(points))
	}
	if got := cm.LatencySlots.Snapshot().Count; got != int64(len(points)) {
		t.Fatalf("latency histogram observed %d samples, want %d", got, len(points))
	}
	if s := cm.LatencySlots.Snapshot(); s.Min <= 0 {
		t.Fatalf("latency snapshot %+v: non-positive minimum", s)
	}
	if got := cm.TuningPackets.Snapshot(); got.Min < 2 {
		t.Fatalf("tuning snapshot %+v: a query tunes at least probe+data", got)
	}

	if sm.FramesWritten.Load() == 0 || sm.BytesWritten.Load() == 0 {
		t.Fatal("server frame counters did not move")
	}
	if got := sm.ConnsTotal.Load(); got != 1 {
		t.Fatalf("conns_total = %d, want 1", got)
	}
	if got := sm.ConnsActive.Load(); got != 1 {
		t.Fatalf("conns_active = %d, want 1 while the client is connected", got)
	}

	// Traces: one per query, newest first, monotone slots, probe→answer.
	if got := traces.Total(); got != uint64(len(points)) {
		t.Fatalf("trace log holds %d traces, want %d", got, len(points))
	}
	for _, tr := range traces.Recent(len(points)) {
		if tr.Err != "" {
			t.Fatalf("trace %d carries error %q", tr.ID, tr.Err)
		}
		if len(tr.Steps) < 3 {
			t.Fatalf("trace %d has %d steps, want at least probe+data+answer", tr.ID, len(tr.Steps))
		}
		if tr.Steps[0].Kind != obs.StepProbe {
			t.Fatalf("trace %d starts with %q, want %q", tr.ID, tr.Steps[0].Kind, obs.StepProbe)
		}
		if last := tr.Steps[len(tr.Steps)-1]; last.Kind != obs.StepAnswer || last.Info != tr.Bucket {
			t.Fatalf("trace %d ends with %+v, want answer/%d", tr.ID, last, tr.Bucket)
		}
		for i := 1; i < len(tr.Steps); i++ {
			if tr.Steps[i].Slot < tr.Steps[i-1].Slot {
				t.Fatalf("trace %d not monotone in slot order: step %d at slot %d after slot %d",
					tr.ID, i, tr.Steps[i].Slot, tr.Steps[i-1].Slot)
			}
		}
	}

	// A hot swap is visible in the swap counter and its latency histogram.
	if _, _, err := sw.Apply([]SiteOp{{Kind: OpAdd, P: testutil.RandomSites(testArea, 1, 5003)[0]}}); err != nil {
		t.Fatal(err)
	}
	if got := sm.Swaps.Load(); got != 1 {
		t.Fatalf("swaps counter = %d, want 1", got)
	}
	if s := sm.SwapLatencyNS.Snapshot(); s.Count != 1 || s.Min <= 0 {
		t.Fatalf("swap latency snapshot %+v after one Apply", s)
	}

	// Connection teardown returns the active gauge to zero.
	client.Close()
	drained := func() int64 {
		if sm.ConnsActive.Load() == 0 {
			return 1
		}
		return 0
	}
	if !obs.AwaitAtLeast(drained, 1, 5*time.Second) {
		t.Fatalf("conns_active = %d after close, want 0", sm.ConnsActive.Load())
	}
	if got := sm.ConnPanics.Load(); got != 0 {
		t.Fatalf("conn_panics = %d, want 0", got)
	}

	// Health reflects the published generation and the rendered cycle.
	h := srv.Health()
	if h.Generation != 2 {
		t.Fatalf("health generation = %d, want 2 after the swap", h.Generation)
	}
	if h.CycleLen <= 0 || h.CycleProgress < 0 || h.CycleProgress >= 1 {
		t.Fatalf("health cycle view %+v", h)
	}
}

// TestLossyChannelObservability checks that the fault middleware's frame
// outcomes land in the server metrics, and that the client's recovery
// counters move under a hostile channel.
func TestLossyChannelObservability(t *testing.T) {
	const capacity = 256
	_, srv, _ := startSwapServer(t, 40, capacity, 5011, func(s *Server) {
		s.StartSlot = func() int { return 0 }
		s.Channel = channel.Spec{Loss: 0.05, Burst: 2, Corrupt: 0.02, Seed: 5012}.Factory(nil)
	})
	sm := srv.Metrics()

	cm := NewClientMetrics()
	client, err := Dial(srv.Addr().String(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Metrics = cm

	for _, p := range testutil.QueryPoints(testArea, 25, 5013) {
		if _, err := client.Query(p); err != nil {
			t.Fatalf("query %v: %v", p, err)
		}
	}
	if sm.FramesDropped.Load() == 0 {
		t.Fatal("frames_dropped did not move under a 5% loss channel")
	}
	if sm.FramesCorrupted.Load() == 0 {
		t.Fatal("frames_corrupted did not move under a 2% corruption channel")
	}
	if cm.LostSlots.Load() == 0 {
		t.Fatal("client lost_slots did not move under a lossy channel")
	}
	if cm.Recoveries.Load() == 0 {
		t.Fatal("client recoveries did not move under a lossy channel")
	}
}
