package experiment

import (
	"encoding/csv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
)

func smallConfig() Config {
	return Config{Capacities: []int{128, 1024}, Queries: 3000, Seed: 7}
}

func TestRunProducesAllCells(t *testing.T) {
	ds := dataset.Uniform(120, 11)
	b, err := Build(ds, 7)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Run(b, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*4 {
		t.Fatalf("measurements = %d, want 8", len(ms))
	}
	for _, m := range ms {
		if m.NormLatency < 1 {
			t.Errorf("%s@%d: normalized latency %v below optimal", m.Index, m.Packet, m.NormLatency)
		}
		if m.AvgTuneIndex <= 0 {
			t.Errorf("%s@%d: no index tuning measured", m.Index, m.Packet)
		}
		if m.IndexPackets <= 0 || m.DataPackets <= 0 || m.M < 1 {
			t.Errorf("%s@%d: bad sizes %+v", m.Index, m.Packet, m)
		}
		if m.Efficiency <= 0 {
			t.Errorf("%s@%d: efficiency %v", m.Index, m.Packet, m.Efficiency)
		}
	}
}

func TestPaperHeadlineShapesHold(t *testing.T) {
	// The qualitative results of Section 5 on a reduced dataset: the D-tree
	// has (a) the smallest index, (b) latency within ~2x of optimal while
	// the decomposition baselines blow up, and (c) the best efficiency.
	ds := dataset.Uniform(250, 13)
	b, err := Build(ds, 13)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Run(b, Config{Capacities: []int{128, 512}, Queries: 4000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Measurement{}
	for _, m := range ms {
		byKey[m.Index+"@"+strconv.Itoa(m.Packet)] = m
	}
	for _, pk := range []string{"128", "512"} {
		d := byKey["D-tree@"+pk]
		for _, other := range []string{"trian-tree", "trap-tree", "R*-tree"} {
			o := byKey[other+"@"+pk]
			if d.NormIndexSize > o.NormIndexSize {
				t.Errorf("packet %s: D-tree index (%.4f) larger than %s (%.4f)",
					pk, d.NormIndexSize, other, o.NormIndexSize)
			}
			if d.Efficiency < o.Efficiency {
				t.Errorf("packet %s: D-tree efficiency (%.2f) below %s (%.2f)",
					pk, d.Efficiency, other, o.Efficiency)
			}
		}
		if d.NormLatency > 2 {
			t.Errorf("packet %s: D-tree latency %.2fx optimal", pk, d.NormLatency)
		}
		if trap := byKey["trap-tree@"+pk]; trap.NormLatency < 2.5 {
			t.Errorf("packet %s: trap-tree latency only %.2fx optimal (expected blow-up)", pk, trap.NormLatency)
		}
	}
}

func TestSamplerUniformOverRegions(t *testing.T) {
	ds := dataset.Uniform(50, 17)
	sub, err := ds.Subdivision()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(sub)
	rng := rand.New(rand.NewSource(18))
	counts := make([]int, sub.N())
	const q = 50000
	for i := 0; i < q; i++ {
		p, r := s.Query(rng)
		if !sub.Regions[r].Poly.Contains(p) {
			t.Fatalf("sampled point %v outside its region %d", p, r)
		}
		counts[r]++
	}
	// Uniform over regions: each region ~q/N draws.
	want := float64(q) / float64(sub.N())
	for r, c := range counts {
		if float64(c) < want*0.7 || float64(c) > want*1.3 {
			t.Errorf("region %d drawn %d times, want about %.0f", r, c, want)
		}
	}
}

func TestSamplerByArea(t *testing.T) {
	ds := dataset.Uniform(50, 19)
	sub, err := ds.Subdivision()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(sub)
	s.ByArea = true
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		p, r := s.Query(rng)
		if !sub.Regions[r].Poly.Contains(p) {
			t.Fatalf("area-sampled point %v outside region %d", p, r)
		}
	}
}

func TestTablesAndCSV(t *testing.T) {
	ds := dataset.Uniform(60, 21)
	b, err := Build(ds, 21)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Run(b, Config{Capacities: []int{256}, Queries: 500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	table := Figure(ms, MetricTuneIndex)
	for _, want := range []string{"UNIFORM(60)", "D-tree", "trap-tree", "256"} {
		if !strings.Contains(table, want) {
			t.Errorf("figure table missing %q:\n%s", want, table)
		}
	}
	lines := strings.Split(strings.TrimSpace(CSV(ms)), "\n")
	if len(lines) != 1+4 {
		t.Errorf("CSV rows = %d, want header + 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "dataset,index,packet") {
		t.Errorf("CSV header: %s", lines[0])
	}
	// A name holding a comma is quoted, so every row parses to the
	// header's width.
	rows, err := csv.NewReader(strings.NewReader(CSV(append(ms, Measurement{Dataset: "d", Index: "D-tree (1,m)"})))).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if last := rows[len(rows)-1]; last[1] != "D-tree (1,m)" {
		t.Errorf("quoted index name read back as %q", last[1])
	}
	if got := Packets(ms); len(got) != 1 || got[0] != 256 {
		t.Errorf("Packets = %v", got)
	}
	if got := Datasets(ms); len(got) != 1 || got[0] != "UNIFORM(60)" {
		t.Errorf("Datasets = %v", got)
	}
}

func TestAblationRuns(t *testing.T) {
	ds := dataset.Uniform(80, 23)
	ms, err := RunAblation(ds, Config{Capacities: []int{128}, Queries: 1500, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(AblationVariants) {
		t.Fatalf("measurements = %d, want %d", len(ms), len(AblationVariants))
	}
	byName := map[string]Measurement{}
	for _, m := range ms {
		byName[m.Index] = m
	}
	full := byName["D-tree"]
	if noEarly := byName["no-early-termination"]; noEarly.AvgTuneIndex < full.AvgTuneIndex-1e-9 {
		t.Errorf("disabling early termination improved tuning: %v < %v",
			noEarly.AvgTuneIndex, full.AvgTuneIndex)
	}
	if single := byName["single-style"]; single.IndexPackets < full.IndexPackets {
		t.Errorf("single style produced a smaller index: %d < %d",
			single.IndexPackets, full.IndexPackets)
	}
}

func TestQueryPointAlwaysResolves(t *testing.T) {
	ds := dataset.Hospital()
	b, err := Build(ds, 29)
	if err != nil {
		t.Fatal(err)
	}
	idxs, err := b.Indexes(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 1500; i++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		for _, idx := range idxs {
			id, trace := idx.Locate(p)
			if id < 0 {
				t.Fatalf("%s failed to resolve %v", idx.Name(), p)
			}
			if len(trace) == 0 {
				t.Fatalf("%s returned an empty trace", idx.Name())
			}
		}
	}
}

func TestRunSkewed(t *testing.T) {
	ds := dataset.Uniform(90, 31)
	ms, err := RunSkewed(ds, Config{Capacities: []int{256}, Queries: 2000, Seed: 31}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Index] = true
		if m.AvgTuneIndex <= 0 || m.NormLatency < 1 {
			t.Errorf("%s: degenerate measurement %+v", m.Index, m)
		}
	}
	if !names["balanced"] || !names["weighted"] {
		t.Errorf("variant names missing: %v", names)
	}
	if out := RenderSkew(ms, ds.Name, 1.2); !strings.Contains(out, "weighted") {
		t.Errorf("render missing variant: %s", out)
	}
}

func TestRunCached(t *testing.T) {
	ds := dataset.Uniform(70, 33)
	rs, err := RunCached(ds, 256, []int{0, 4}, Config{Queries: 2000, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4*2 {
		t.Fatalf("results = %d, want 8", len(rs))
	}
	byKey := map[string]CacheResult{}
	for _, r := range rs {
		byKey[r.Index+"@"+strconv.Itoa(r.CachePackets)] = r
		if r.CachePackets == 0 && r.HitRate != 0 {
			t.Errorf("%s: hit rate %v with empty cache", r.Index, r.HitRate)
		}
	}
	for _, name := range IndexOrder {
		zero, four := byKey[name+"@0"], byKey[name+"@4"]
		if four.AvgTuneIndex > zero.AvgTuneIndex+1e-9 {
			t.Errorf("%s: caching increased tuning (%v -> %v)", name, zero.AvgTuneIndex, four.AvgTuneIndex)
		}
		if four.HitRate <= 0 {
			t.Errorf("%s: zero hit rate with 4 pinned packets", name)
		}
	}
	table := CacheTable(rs)
	for _, want := range []string{"cache", "D-tree", "0", "4"} {
		if !strings.Contains(table, want) {
			t.Errorf("cache table missing %q:\n%s", want, table)
		}
	}
	if CacheTable(nil) != "" {
		t.Error("empty cache table should be empty")
	}
}

func TestRunDistributed(t *testing.T) {
	ds := dataset.Uniform(120, 35)
	ms, err := RunDistributed(ds, Config{Capacities: []int{256}, Queries: 3000, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	byName := map[string]Measurement{}
	for _, m := range ms {
		byName[m.Index] = m
	}
	om, dist := byName["D-tree (1,m)"], byName["D-tree (dist)"]
	if om.Index == "" || dist.Index == "" {
		t.Fatalf("variant names missing: %v", byName)
	}
	if dist.NormLatency >= om.NormLatency {
		t.Errorf("distributed latency %.3f not below (1,m) %.3f", dist.NormLatency, om.NormLatency)
	}
	if dist.Efficiency <= om.Efficiency {
		t.Errorf("distributed efficiency %.2f not above (1,m) %.2f", dist.Efficiency, om.Efficiency)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(100, 1.0, 7)
	if len(w) != 100 {
		t.Fatalf("len = %d", len(w))
	}
	max, sum := 0.0, 0.0
	for _, v := range w {
		if v <= 0 {
			t.Fatal("non-positive weight")
		}
		if v > max {
			max = v
		}
		sum += v
	}
	if max != 1.0 {
		t.Errorf("top weight = %v, want 1 (rank 1)", max)
	}
	if sum < 4 || sum > 6 { // harmonic(100) ~ 5.19
		t.Errorf("weight sum %v, want about H(100)", sum)
	}
	w2 := ZipfWeights(100, 1.0, 7)
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("not deterministic")
		}
	}
}
