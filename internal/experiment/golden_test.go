package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"airindex/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_figures.csv from the current code")

// goldenFigures is the checked-in output of
//
//	airbench -figure all -baselines -queries 20000 -csv
//
// the paper's Figures 10–13 for all four indexes over the three datasets
// and six packet capacities.
var goldenFigures = filepath.Join("testdata", "paper_figures.csv")

// TestGoldenPaperFigures pins the reproduction byte for byte: index sizes,
// (1, m) replication, latencies and tuning of every index on every
// dataset and capacity. The run is deterministic at any worker count, so
// any change to partitioning, tie-breaking, paging or the schedule that
// moves one of these numbers fails here. Regenerate deliberately with
// `go test ./internal/experiment -run TestGoldenPaperFigures -update` and
// list the changed rows with the reason in the change description.
func TestGoldenPaperFigures(t *testing.T) {
	ds := []dataset.Dataset{dataset.Uniform(1000, 1000), dataset.Hospital(), dataset.Park()}
	ms, err := RunAll(ds, Config{Capacities: []int{64, 128, 256, 512, 1024, 2048}, Queries: 20000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got := CSV(ms)
	if *update {
		if err := os.WriteFile(goldenFigures, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFigures)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gotRows, wantRows := strings.Split(got, "\n"), strings.Split(want, "\n")
	diffs := 0
	for i := range max(len(gotRows), len(wantRows)) {
		var g, w string
		if i < len(gotRows) {
			g = gotRows[i]
		}
		if i < len(wantRows) {
			w = wantRows[i]
		}
		if g != w {
			if diffs++; diffs <= 10 {
				t.Errorf("row %d:\n   got %s\n  want %s", i, g, w)
			}
		}
	}
	t.Fatalf("%d of %d lines differ from %s", diffs, len(wantRows), goldenFigures)
}
