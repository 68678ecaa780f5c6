package broadcast

import (
	"math"
	"math/rand"
	"testing"
)

func TestScheduleLayout(t *testing.T) {
	s, err := NewSchedule(10, 9, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.CycleLen() != 3*10+9*2 {
		t.Fatalf("cycle = %d", s.CycleLen())
	}
	if s.DataPackets() != 18 {
		t.Fatalf("data %d", s.DataPackets())
	}
	// Index copies at 0, 10+6=16, 32; buckets 3 per segment.
	wantStarts := []int{0, 16, 32}
	for j, want := range wantStarts {
		if got := s.indexStarts[j]; got != want {
			t.Errorf("index start %d = %d, want %d", j, got, want)
		}
	}
	if s.bucketPos[0] != 10 || s.bucketPos[3] != 26 || s.bucketPos[8] != 46 {
		t.Errorf("bucket positions %v", s.bucketPos)
	}
}

func TestScheduleUnevenChunks(t *testing.T) {
	s, err := NewSchedule(5, 10, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 10 buckets over 3 segments: 4, 3, 3.
	if s.CycleLen() != 3*5+10 {
		t.Fatalf("cycle = %d", s.CycleLen())
	}
	if s.bucketPos[4] != 5+4+5 {
		t.Errorf("bucket 4 at %d", s.bucketPos[4])
	}
}

func TestScheduleClampsM(t *testing.T) {
	s, err := NewSchedule(5, 3, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.M != 3 {
		t.Fatalf("m = %d, want clamp to 3", s.M)
	}
	s, err = NewSchedule(5, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.M != 1 {
		t.Fatalf("m = %d, want clamp to 1", s.M)
	}
}

func TestNextOccurrence(t *testing.T) {
	s, _ := NewSchedule(10, 9, 2, 3)
	L := float64(s.CycleLen())
	if got := s.NextIndexStart(0); got != 0 {
		t.Errorf("next at 0 = %d", got)
	}
	if got := s.NextIndexStart(1); got != 16 {
		t.Errorf("next at 1 = %d", got)
	}
	if got := s.NextIndexStart(33); got != s.CycleLen() {
		t.Errorf("next at 33 = %d, want wrap to %d", got, s.CycleLen())
	}
	if got := s.NextIndexStart(L + 17); got != s.CycleLen()+32 {
		t.Errorf("next in second cycle = %d", got)
	}
	if got := s.NextBucketStart(0, 11); got != s.CycleLen()+10 {
		t.Errorf("bucket 0 after its start = %d", got)
	}
}

func TestOptimalM(t *testing.T) {
	if got := OptimalM(0, 100); got != 1 {
		t.Errorf("no index m = %d", got)
	}
	if got := OptimalM(100, 100); got != 1 {
		t.Errorf("equal sizes m = %d", got)
	}
	if got := OptimalM(10, 1000); got != 10 {
		t.Errorf("sqrt m = %d, want 10", got)
	}
	if got := OptimalM(1, 9); got != 3 {
		t.Errorf("m = %d, want 3", got)
	}
}

func TestAccessInvariants(t *testing.T) {
	s, err := NewSchedule(8, 20, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 20000; i++ {
		b := rng.Intn(20)
		trace := SearchTrace{Bucket: b, IndexOffsets: []int{0, 1 + rng.Intn(3), 4 + rng.Intn(4)}}
		tm := rng.Float64() * float64(s.CycleLen())
		c, err := s.Access(tm, trace)
		if err != nil {
			t.Fatal(err)
		}
		if c.Latency < float64(s.BucketPackets) {
			t.Fatalf("latency %v below data read time", c.Latency)
		}
		if c.TuneIndex != len(trace.IndexOffsets) {
			t.Fatalf("tuning %d != offsets %d", c.TuneIndex, len(trace.IndexOffsets))
		}
		if c.TuneProbe != 1 || c.TuneData != s.BucketPackets {
			t.Fatalf("probe/data tuning wrong: %+v", c)
		}
		if c.Latency > float64(3*s.CycleLen()) {
			t.Fatalf("latency %v exceeds three cycles", c.Latency)
		}
		if float64(c.TotalTuning()) > c.Latency+1 {
			t.Fatalf("tuning %d exceeds latency %v", c.TotalTuning(), c.Latency)
		}
	}
}

func TestAccessBackwardOffsetWaitsForNextCopy(t *testing.T) {
	s, err := NewSchedule(10, 10, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Forward trace vs a trace revisiting an earlier offset.
	fwd, err := s.Access(0, SearchTrace{Bucket: 9, IndexOffsets: []int{0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.Access(0, SearchTrace{Bucket: 9, IndexOffsets: []int{0, 5, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if back.Latency <= fwd.Latency {
		t.Errorf("backward pointer should cost extra latency: %v vs %v", back.Latency, fwd.Latency)
	}
	if back.TuneIndex != 3 {
		t.Errorf("backward tuning = %d", back.TuneIndex)
	}
}

func TestAccessErrors(t *testing.T) {
	s, _ := NewSchedule(4, 5, 1, 1)
	if _, err := s.Access(0, SearchTrace{Bucket: -1}); err == nil {
		t.Error("negative bucket should fail")
	}
	if _, err := s.Access(0, SearchTrace{Bucket: 5}); err == nil {
		t.Error("bucket out of range should fail")
	}
	if _, err := s.Access(0, SearchTrace{Bucket: 0, IndexOffsets: []int{4}}); err == nil {
		t.Error("offset beyond index segment should fail")
	}
}

func TestNoIndexAccessExpectation(t *testing.T) {
	// Expected no-index latency over random (bucket, time) is about half
	// the data cycle.
	const n, bp = 50, 2
	rng := rand.New(rand.NewSource(16))
	var sum float64
	const q = 200000
	for i := 0; i < q; i++ {
		c := NoIndexAccess(rng.Float64()*float64(n*bp), n, bp, rng.Intn(n))
		sum += c.Latency
		if c.Latency < bp {
			t.Fatalf("latency %v below read time", c.Latency)
		}
		if got := c.TotalTuning(); float64(got) < c.Latency-2 || float64(got) > c.Latency+2 {
			t.Fatalf("no-index tuning %d should track latency %v", got, c.Latency)
		}
	}
	avg := sum / q
	want := float64(n*bp)/2 + bp
	if math.Abs(avg-want)/want > 0.03 {
		t.Errorf("average no-index latency %v, want about %v", avg, want)
	}
}

func TestScheduleErrors(t *testing.T) {
	if _, err := NewSchedule(-1, 10, 1, 1); err == nil {
		t.Error("negative index size should fail")
	}
	if _, err := NewSchedule(5, 0, 1, 1); err == nil {
		t.Error("zero buckets should fail")
	}
	if _, err := NewSchedule(5, 10, 0, 1); err == nil {
		t.Error("zero bucket packets should fail")
	}
}

// TestAccessMatchesAnalyticModel cross-checks the Monte Carlo simulator
// against the closed-form (1, m) expectation of Imielinski et al.:
// E[latency] ~ probe(1) + (I + D/m)/2  (wait for the next index copy)
//   - (m*I + D)/2             (wait for the data)
//
// plus the bucket read time; the small index-search span is the residual.
func TestAccessMatchesAnalyticModel(t *testing.T) {
	const (
		I  = 20
		n  = 200
		bp = 2
		m  = 4
	)
	s, err := NewSchedule(I, n, bp, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var lat float64
	const q = 300000
	for i := 0; i < q; i++ {
		trace := SearchTrace{Bucket: rng.Intn(n), IndexOffsets: []int{0, 2, 7}}
		c, err := s.Access(rng.Float64()*float64(s.CycleLen()), trace)
		if err != nil {
			t.Fatal(err)
		}
		lat += c.Latency
	}
	lat /= q
	D := float64(n * bp)
	analytic := 1 + (float64(I)+D/m)/2 + (float64(m*I)+D)/2 + float64(bp)
	if rel := math.Abs(lat-analytic) / analytic; rel > 0.05 {
		t.Errorf("Monte Carlo latency %.1f vs analytic %.1f (rel %.3f)", lat, analytic, rel)
	}
}

// TestOptimalMIsOptimal verifies that the m chosen by OptimalM minimizes
// simulated latency over its neighbors.
func TestOptimalMIsOptimal(t *testing.T) {
	const (
		I  = 10
		n  = 250
		bp = 2
	)
	avgLatency := func(m int) float64 {
		s, err := NewSchedule(I, n, bp, m)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(18))
		var lat float64
		const q = 120000
		for i := 0; i < q; i++ {
			trace := SearchTrace{Bucket: rng.Intn(n), IndexOffsets: []int{0, 3}}
			c, err := s.Access(rng.Float64()*float64(s.CycleLen()), trace)
			if err != nil {
				t.Fatal(err)
			}
			lat += c.Latency
		}
		return lat / q
	}
	best := OptimalM(I, n*bp)
	lbest := avgLatency(best)
	for _, m := range []int{best / 2, best * 2} {
		if m < 1 || m == best {
			continue
		}
		if l := avgLatency(m); l < lbest*0.98 {
			t.Errorf("m=%d latency %.1f beats optimal m=%d latency %.1f", m, l, best, lbest)
		}
	}
}
