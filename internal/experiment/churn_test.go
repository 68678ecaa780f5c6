package experiment

import (
	"encoding/binary"
	"strings"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/stream"
)

// TestChurnSweep pins the acceptance shape of the live-reconfiguration
// experiment: every query at every churn level resolves correctly against
// the generation it completed under (RunChurn fails otherwise), the static
// baseline sees no swaps and no restarts, and churned cells actually
// published generations.
func TestChurnSweep(t *testing.T) {
	ds := dataset.Uniform(40, 6100)
	levels := []int{0, 16, 48}
	ps, err := RunChurn(ds, 256, levels, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(levels) {
		t.Fatalf("got %d points, want %d", len(ps), len(levels))
	}
	base := ps[0]
	if base.Ops != 0 || base.Swaps != 0 {
		t.Fatalf("baseline cell saw %d ops, %d swaps; want 0, 0", base.Ops, base.Swaps)
	}
	if base.AvgEpochRestarts != 0 || base.RestartedFrac != 0 {
		t.Fatalf("baseline cell restarted: %+v", base)
	}
	for _, p := range ps[1:] {
		if p.Swaps == 0 {
			t.Errorf("churn level %d published no generations", p.Ops)
		}
		if p.AvgLatency <= 0 || p.AvgTuning <= 0 {
			t.Errorf("churn level %d: degenerate averages %+v", p.Ops, p)
		}
	}

	tables := ChurnTables(ps)
	if !strings.Contains(tables, "live reconfiguration cost") {
		t.Fatalf("tables missing header:\n%s", tables)
	}
	csv := ChurnCSV(ps)
	if got := strings.Count(csv, "\n"); got != len(ps)+1 {
		t.Fatalf("csv has %d lines, want %d", got, len(ps)+1)
	}
	if !strings.HasPrefix(csv, "dataset,ops,queries,swaps,") {
		t.Fatalf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
}

// TestCheckAnswerRangeChecksBucket: an answer naming a bucket outside its
// generation's regions, or an unknown generation, is reported as an error,
// not a panic; the right answer passes.
func TestCheckAnswerRangeChecksBucket(t *testing.T) {
	ds := dataset.Uniform(40, 6200)
	const capacity = 128
	sw, err := fabric.NewSwapper(ds.Area, ds.Sites, 1, capacity, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := sw.Current(0)
	p := ds.Sites[3]
	bucket := g.Shard.Sub.Locate(p)
	data := make([]byte, capacity) // one packet stamped (bucket, 0)
	binary.LittleEndian.PutUint32(data, uint32(bucket))
	good := stream.Result{Generation: g.Gen, Bucket: bucket, Data: data}
	if err := checkAnswer(sw, p, good, capacity); err != nil {
		t.Fatalf("right answer refused: %v", err)
	}
	for _, bad := range []stream.Result{
		{Generation: g.Gen, Bucket: g.Shard.Sub.N(), Data: data},
		{Generation: g.Gen, Bucket: -1, Data: data},
		{Generation: g.Gen + 1, Bucket: bucket, Data: data},
	} {
		if err := checkAnswer(sw, p, bad, capacity); err == nil {
			t.Errorf("generation %d bucket %d accepted", bad.Generation, bad.Bucket)
		}
	}
}
