package experiment

import (
	"fmt"
	"math/rand"
	"net"
	"strings"

	"airindex/internal/channel"
	"airindex/internal/dataset"
	"airindex/internal/region"
	"airindex/internal/stream"
)

// This file hosts the unreliable-channel extension experiment: how much
// energy (tuning) and latency the client's loss/corruption recovery costs
// as the channel degrades, per fault model. Unlike the paper figures these
// run against the real framed byte stream (internal/stream) through the
// fault middleware (internal/channel) over an in-memory pipe, so the
// numbers include every protocol effect — missed index copies, bucket
// retries, wasted wake slots.

// LossModels are the sweep's fault-model families.
var LossModels = []string{"bernoulli", "gilbert-elliott", "corruption"}

// LossPoint is one cell of the sweep: one fault model at one fault rate,
// measured over live streamed queries.
type LossPoint struct {
	Dataset string
	Model   string
	Rate    float64
	Queries int

	AvgLatency    float64 // slots, probe to final frame observed
	AvgTuning     float64 // active-radio packets, recovery included
	AvgRecoveries float64 // recovery actions per query
	AvgLostSlots  float64 // channel drops observed per query

	FramesDropped   int64 // channel-side counters over the whole cell
	FramesCorrupted int64

	// Obs holds the cell's full observability snapshot — the transmit-side
	// frame counters and the client's latency/tuning distributions and
	// recovery counters — keyed "server" and "client" (JSON output only).
	Obs map[string]any `json:",omitempty"`
}

// lossSpec maps a model family and rate to a channel spec. The
// Gilbert-Elliott family uses mean bursts of 4 frames, a common wireless
// fading figure.
func lossSpec(model string, rate float64, seed int64) (channel.Spec, error) {
	switch model {
	case "bernoulli":
		return channel.Spec{Loss: rate, Seed: seed}, nil
	case "gilbert-elliott":
		return channel.Spec{Loss: rate, Burst: 4, Seed: seed}, nil
	case "corruption":
		return channel.Spec{Corrupt: rate, Seed: seed}, nil
	}
	return channel.Spec{}, fmt.Errorf("experiment: unknown fault model %q", model)
}

// RunLoss sweeps fault rate x fault model over live streamed queries
// against one dataset at one packet capacity. Rates should include 0 (the
// reliable baseline every curve starts from). Every query must resolve to
// the correct region with checksum-verified data, or the sweep fails.
func RunLoss(ds dataset.Dataset, capacity int, rates []float64, queries int, seed int64) ([]LossPoint, error) {
	sub, err := ds.Subdivision()
	if err != nil {
		return nil, err
	}
	prog, err := stream.NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		return nil, err
	}
	sampler := NewSampler(sub)
	if queries <= 0 {
		queries = 100
	}
	var out []LossPoint
	for _, model := range LossModels {
		for _, rate := range rates {
			spec, err := lossSpec(model, rate, seed)
			if err != nil {
				return nil, err
			}
			pt, err := runLossCell(ds.Name, sub, prog, sampler, spec, model, rate, capacity, queries, seed)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s at rate %v: %w", model, rate, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// runLossCell measures one (model, rate) cell over a fresh pipe stream.
func runLossCell(name string, sub *region.Subdivision, prog *stream.Program, sampler *Sampler,
	spec channel.Spec, model string, rate float64, capacity, queries int, seed int64) (LossPoint, error) {
	stats := &channel.Stats{}
	ch := channel.New(spec.Model(seed+101), seed+202, stats)
	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	defer srvEnd.Close()
	sm := stream.NewMetrics()
	go prog.TransmitObserved(srvEnd, int(seed)%prog.Sched.CycleLen(), ch, sm) //nolint:errcheck

	client := stream.NewClient(cliEnd, capacity)
	cm := stream.NewClientMetrics()
	client.Metrics = cm
	rng := rand.New(rand.NewSource(seed + 7))
	pt := LossPoint{Dataset: name, Model: model, Rate: rate, Queries: queries}
	for q := 0; q < queries; q++ {
		p, want := sampler.Query(rng)
		res, err := client.Query(p)
		if err != nil {
			return pt, fmt.Errorf("query %d at %v: %w", q, p, err)
		}
		if err := checkRegion(sub, p, res.Bucket, want); err != nil {
			return pt, fmt.Errorf("query %d: %w", q, err)
		}
		if err := stream.VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
			return pt, fmt.Errorf("query %d: %w", q, err)
		}
		pt.AvgLatency += res.Latency
		pt.AvgTuning += float64(res.TotalTuning())
		pt.AvgRecoveries += float64(res.Recoveries)
		pt.AvgLostSlots += float64(res.LostSlots)
	}
	qf := float64(queries)
	pt.AvgLatency /= qf
	pt.AvgTuning /= qf
	pt.AvgRecoveries /= qf
	pt.AvgLostSlots /= qf
	snap := stats.Snapshot()
	pt.FramesDropped, pt.FramesCorrupted = snap.Dropped, snap.Corrupted
	pt.Obs = map[string]any{"server": sm.Snapshot(), "client": cm.Snapshot()}
	return pt, nil
}

// LossRates returns the sweep's default fault rates.
func LossRates() []float64 { return []float64{0, 0.02, 0.05, 0.10} }

// lossTable renders one metric: rows are fault rates, columns the models.
func lossTable(ps []LossPoint, label string, get func(LossPoint) float64) string {
	var rates []float64
	seenRate := map[float64]bool{}
	var models []string
	seenModel := map[string]bool{}
	cell := map[[2]interface{}]LossPoint{}
	for _, p := range ps {
		if !seenRate[p.Rate] {
			seenRate[p.Rate] = true
			rates = append(rates, p.Rate)
		}
		if !seenModel[p.Model] {
			seenModel[p.Model] = true
			models = append(models, p.Model)
		}
		cell[[2]interface{}{p.Rate, p.Model}] = p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", ps[0].Dataset, label)
	fmt.Fprintf(&b, "%-10s", "rate")
	for _, m := range models {
		fmt.Fprintf(&b, " %16s", m)
	}
	b.WriteByte('\n')
	for _, r := range rates {
		fmt.Fprintf(&b, "%-10.2f", r)
		for _, m := range models {
			p, ok := cell[[2]interface{}{r, m}]
			if !ok {
				fmt.Fprintf(&b, " %16s", "-")
				continue
			}
			fmt.Fprintf(&b, " %16.3f", get(p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LossTables renders the sweep: access latency, total tuning, and
// recovery actions as functions of the channel fault rate.
func LossTables(ps []LossPoint) string {
	if len(ps) == 0 {
		return ""
	}
	return lossTable(ps, "avg access latency (slots) vs channel fault rate",
		func(p LossPoint) float64 { return p.AvgLatency }) + "\n" +
		lossTable(ps, "avg tuning (active-radio packets, recovery included) vs channel fault rate",
			func(p LossPoint) float64 { return p.AvgTuning }) + "\n" +
		lossTable(ps, "avg recovery actions per query vs channel fault rate",
			func(p LossPoint) float64 { return p.AvgRecoveries })
}

// LossCSV renders the sweep as comma-separated rows for external plotting.
func LossCSV(ps []LossPoint) string {
	var b strings.Builder
	b.WriteString("dataset,model,rate,queries,avg_latency,avg_tuning,avg_recoveries,avg_lost_slots,frames_dropped,frames_corrupted\n")
	for _, p := range ps {
		fmt.Fprintf(&b, "%s,%s,%.4f,%d,%.4f,%.4f,%.4f,%.4f,%d,%d\n",
			p.Dataset, p.Model, p.Rate, p.Queries, p.AvgLatency, p.AvgTuning,
			p.AvgRecoveries, p.AvgLostSlots, p.FramesDropped, p.FramesCorrupted)
	}
	return b.String()
}
