package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"airindex/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current code")

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
	checkGolden(t, goldenFigures, CSV(ms))
}

// TestGoldenExtensionFigures pins the extension studies the same way, each
// as the string the library renders for
//
//	airbench -figure {ablation,skew,dist} -datasets uniform -queries 5000 -csv
//	airbench -figure cache -datasets uniform -queries 5000
//
// at seed 42 over the six paper capacities. Regenerate with
// `go test ./internal/experiment -run TestGoldenExtensionFigures -update`.
func TestGoldenExtensionFigures(t *testing.T) {
	d := dataset.Uniform(1000, 1000)
	cfg := Config{Capacities: []int{64, 128, 256, 512, 1024, 2048}, Queries: 5000, Seed: 42, NoBaselines: true}
	csvOf := func(ms []Measurement, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return CSV(ms), nil
	}
	for _, fig := range []struct {
		name   string
		render func() (string, error)
	}{
		{"ablation", func() (string, error) { return csvOf(RunAblation(d, cfg)) }},
		{"skew", func() (string, error) { return csvOf(RunSkewed(d, cfg, 1.0)) }},
		{"cache", func() (string, error) {
			var sb strings.Builder
			for _, capacity := range cfg.Capacities {
				rs, err := RunCached(d, capacity, []int{0, 1, 2, 4, 8, 16}, cfg)
				if err != nil {
					return "", err
				}
				sb.WriteString(CacheTable(rs) + "\n")
			}
			return sb.String(), nil
		}},
		{"dist", func() (string, error) { return csvOf(RunDistributed(d, cfg)) }},
	} {
		t.Run(fig.name, func(t *testing.T) {
			got, err := fig.render()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", fig.name+".csv"), got)
		})
	}
}

// checkGolden compares got with the golden file at path line by line,
// reporting the first differing rows, or rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
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
	t.Fatalf("%d of %d lines differ from %s", diffs, len(wantRows), path)
}
