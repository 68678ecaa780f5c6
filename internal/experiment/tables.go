package experiment

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Metric selects which quantity of a Measurement a figure plots.
type Metric struct {
	Name   string
	Label  string
	Format string
	Get    func(Measurement) float64
}

// The paper's figures as metrics over the measurement set.
var (
	MetricNormLatency = Metric{
		Name: "fig10", Label: "expected access latency (normalized to optimal)",
		Format: "%8.3f", Get: func(m Measurement) float64 { return m.NormLatency },
	}
	MetricNormIndexSize = Metric{
		Name: "fig11", Label: "index size (normalized to database size)",
		Format: "%8.4f", Get: func(m Measurement) float64 { return m.NormIndexSize },
	}
	MetricTuneIndex = Metric{
		Name: "fig12", Label: "tuning time of the index search step (packets)",
		Format: "%8.3f", Get: func(m Measurement) float64 { return m.AvgTuneIndex },
	}
	MetricEfficiency = Metric{
		Name: "fig13", Label: "indexing efficiency",
		Format: "%8.2f", Get: func(m Measurement) float64 { return m.Efficiency },
	}
)

// IndexOrder is the paper's curve order.
var IndexOrder = []string{"D-tree", "trian-tree", "trap-tree", "R*-tree"}

// Datasets returns the distinct dataset names in first-seen order.
func Datasets(ms []Measurement) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range ms {
		if !seen[m.Dataset] {
			seen[m.Dataset] = true
			out = append(out, m.Dataset)
		}
	}
	return out
}

// Packets returns the sorted distinct packet capacities.
func Packets(ms []Measurement) []int {
	seen := map[int]bool{}
	for _, m := range ms {
		seen[m.Packet] = true
	}
	var out []int
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Table renders one dataset's series for a metric: rows are packet
// capacities, columns the index structures.
func Table(ms []Measurement, datasetName string, metric Metric) string {
	cell := map[[2]interface{}]Measurement{}
	indexSeen := map[string]bool{}
	for _, m := range ms {
		if m.Dataset != datasetName {
			continue
		}
		cell[[2]interface{}{m.Packet, m.Index}] = m
		indexSeen[m.Index] = true
	}
	var indexes []string
	for _, name := range IndexOrder {
		if indexSeen[name] {
			indexes = append(indexes, name)
			delete(indexSeen, name)
		}
	}
	var rest []string
	for name := range indexSeen {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	indexes = append(indexes, rest...)

	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", datasetName, metric.Label)
	fmt.Fprintf(&b, "%-10s", "packet")
	for _, name := range indexes {
		fmt.Fprintf(&b, " %12s", name)
	}
	b.WriteByte('\n')
	for _, p := range Packets(ms) {
		fmt.Fprintf(&b, "%-10d", p)
		for _, name := range indexes {
			m, ok := cell[[2]interface{}{p, name}]
			if !ok {
				fmt.Fprintf(&b, " %12s", "-")
				continue
			}
			fmt.Fprintf(&b, " %12s", fmt.Sprintf(metric.Format, metric.Get(m)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure renders a whole figure (one table per dataset, the paper's (a),
// (b), (c) panels).
func Figure(ms []Measurement, metric Metric) string {
	var b strings.Builder
	for i, ds := range Datasets(ms) {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(Table(ms, ds, metric))
	}
	return b.String()
}

// CSV renders every measurement as comma-separated rows for external
// plotting, quoting a field where it needs it ("D-tree (1,m)").
func CSV(ms []Measurement) string {
	rows := [][]string{{"dataset", "index", "packet", "index_packets", "index_bytes", "data_packets", "m",
		"avg_latency", "norm_latency", "tune_index", "tune_total", "norm_index_size", "efficiency",
		"noindex_latency", "noindex_tuning"}}
	f := func(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
	for _, m := range ms {
		rows = append(rows, []string{m.Dataset, m.Index, strconv.Itoa(m.Packet), strconv.Itoa(m.IndexPackets),
			strconv.Itoa(m.IndexBytes), strconv.Itoa(m.DataPackets), strconv.Itoa(m.M),
			f(m.AvgLatency, 4), f(m.NormLatency, 4), f(m.AvgTuneIndex, 4), f(m.AvgTuneTotal, 4), f(m.NormIndexSize, 6),
			f(m.Efficiency, 4), f(m.NoIndexLatency, 4), f(m.NoIndexTuning, 4)})
	}
	var b strings.Builder
	csv.NewWriter(&b).WriteAll(rows) //nolint:errcheck // a strings.Builder never fails a write
	return b.String()
}
