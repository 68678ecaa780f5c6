package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/stream"
)

// Continuous-query extension experiment: a fleet of moving clients holds a
// standing window+kNN query over a live adjacency broadcast while the site
// population churns. Each client is measured twice over the identical
// trajectory — once revalidating its cache each cycle (incremental), once
// re-acquiring appendix, descent and answer buckets every cycle (fresh) —
// so the tuning ratio isolates exactly what revalidation saves. Both
// sessions' answers are cross-checked every cycle; a disagreement under
// matching generations fails the run.

// ContinuousPoint is one fleet's measurement.
type ContinuousPoint struct {
	Dataset  string
	Sites    int
	Capacity int
	Model    string // trajectory model: waypoint or commuter
	Clients  int
	Cycles   int // per client
	ChurnOps int // site operations applied across the run
	Swaps    int // generations published

	AvgTuningInc     float64 // active-radio packets per cycle, incremental
	AvgTuningFresh   float64 // same trajectory, fresh-per-cycle baseline
	TuningRatio      float64 // fresh / incremental: the revalidation win
	AvgLatencyInc    float64 // slots per cycle, incremental
	AvgLatencyFresh  float64
	RevalidationHits int64 // incremental cycles answered from cache
	Redescents       int64 // cycles that re-descended after a crossing
	Refreshes        int64 // cycles that re-acquired after a generation change

	// Obs carries both sessions' counter registries (JSON output only).
	Obs map[string]any `json:",omitempty"`
}

// RunContinuous measures one fleet over a live single-channel adjacency
// broadcast, each session a fabric.Continuous over a one-channel client (the
// broadcast carries no directory). churnOps site operations are spread
// across the run and applied between cycles; model is "waypoint" or
// "commuter".
func RunContinuous(ds dataset.Dataset, capacity int, model string, clients, cycles, churnOps int, q stream.ContinuousQuery, seed int64) (ContinuousPoint, error) {
	if clients <= 0 {
		clients = 1
	}
	if cycles <= 0 {
		cycles = 30
	}
	pt := ContinuousPoint{
		Dataset: ds.Name, Sites: ds.N(), Capacity: capacity,
		Model: model, Clients: clients, Cycles: cycles, ChurnOps: churnOps,
	}
	sw, srv, err := serveSingleChannel(ds, capacity, fabric.Options{Adjacency: true})
	if err != nil {
		return pt, err
	}
	defer srv.Close()

	// Client speed scales with the expected Voronoi cell diameter so the
	// workload exercises every outcome class at any density: slow cycles
	// revalidate in place, fast ones cross into a neighbor cell.
	cell := ds.Area.W() / math.Sqrt(float64(ds.N()))
	fleet, err := dataset.Fleet(model, ds.Area, clients, cycles, seed, cell/2, 2*cell)
	if err != nil {
		return pt, err
	}

	im := stream.NewContinuousMetrics()
	fm := stream.NewContinuousMetrics()
	drng := rand.New(rand.NewSource(seed * 31))
	var incTune, freshTune, incLat, freshLat float64
	applied := 0
	totalSteps := clients * cycles
	step := 0
	addrs := []string{srv.Addr().String()}
	for ci, traj := range fleet {
		incCli := fabric.NewClient(addrs, capacity)
		freshCli := fabric.NewClient(addrs, capacity)
		inc := fabric.NewContinuous(incCli, stream.ModeIncremental, q)
		inc.Metrics = im
		fresh := fabric.NewContinuous(freshCli, stream.ModeFresh, q)
		fresh.Metrics = fm
		for cyc := 0; cyc < cycles; cyc++ {
			// Pace the churn budget evenly across the whole run, applied
			// between cycles so each generation's ground truth stays pinned
			// while a cycle is in flight.
			for churnOps > 0 && applied*totalSteps < churnOps*step {
				batch := ChurnBatch(sw.LiveSiteIDs(), drng, 1, ds.N())
				if _, _, err := sw.Apply(batch); err != nil {
					incCli.Close()
					freshCli.Close()
					return pt, fmt.Errorf("churn after step %d: %w", step, err)
				}
				applied += len(batch)
				pt.Swaps++
			}
			step++
			p := traj.At(cyc)
			oi, err := inc.Step(p)
			if err != nil {
				incCli.Close()
				freshCli.Close()
				return pt, fmt.Errorf("client %d cycle %d incremental: %w", ci, cyc, err)
			}
			of, err := fresh.Step(p)
			if err != nil {
				incCli.Close()
				freshCli.Close()
				return pt, fmt.Errorf("client %d cycle %d fresh: %w", ci, cyc, err)
			}
			if oi.Res.Generation == of.Res.Generation {
				if oi.Region != of.Region || !sameI32(oi.Window, of.Window) || !sameI32(oi.KNN, of.KNN) {
					incCli.Close()
					freshCli.Close()
					return pt, fmt.Errorf("client %d cycle %d: incremental and fresh answers diverge under generation %d", ci, cyc, oi.Res.Generation)
				}
			}
			incTune += float64(oi.Res.TotalTuning())
			freshTune += float64(of.Res.TotalTuning())
			incLat += oi.Res.Latency
			freshLat += of.Res.Latency
		}
		incCli.Close()
		freshCli.Close()
	}

	n := float64(totalSteps)
	pt.AvgTuningInc = incTune / n
	pt.AvgTuningFresh = freshTune / n
	if incTune > 0 {
		pt.TuningRatio = freshTune / incTune
	}
	pt.AvgLatencyInc = incLat / n
	pt.AvgLatencyFresh = freshLat / n
	pt.RevalidationHits = im.RevalidationHits.Load()
	pt.Redescents = im.BoundaryRedescents.Load()
	pt.Refreshes = im.FullRefreshes.Load()
	pt.Obs = map[string]any{"incremental": im.Snapshot(), "fresh": fm.Snapshot()}
	return pt, nil
}

func sameI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ContinuousCSV renders the fleet points as CSV.
func ContinuousCSV(ps []ContinuousPoint) string {
	var b strings.Builder
	b.WriteString("dataset,sites,capacity,model,clients,cycles,churn_ops,swaps,tune_inc,tune_fresh,ratio,lat_inc,lat_fresh,hits,redescents,refreshes\n")
	for _, p := range ps {
		fmt.Fprintf(&b, "%s,%d,%d,%s,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.1f,%.1f,%d,%d,%d\n",
			p.Dataset, p.Sites, p.Capacity, p.Model, p.Clients, p.Cycles, p.ChurnOps, p.Swaps,
			p.AvgTuningInc, p.AvgTuningFresh, p.TuningRatio, p.AvgLatencyInc, p.AvgLatencyFresh,
			p.RevalidationHits, p.Redescents, p.Refreshes)
	}
	return b.String()
}

// ContinuousTables renders the fleet points as an aligned text table.
func ContinuousTables(ps []ContinuousPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %7s %6s %6s %6s %9s %11s %7s %6s %10s %9s\n",
		"model", "clients", "cycles", "churn", "swaps", "tune/cyc", "fresh/cyc", "ratio", "hits", "redescents", "refreshes")
	for _, p := range ps {
		fmt.Fprintf(&b, "%-10s %7d %6d %6d %6d %9.2f %11.2f %6.1fx %6d %10d %9d\n",
			p.Model, p.Clients, p.Cycles, p.ChurnOps, p.Swaps,
			p.AvgTuningInc, p.AvgTuningFresh, p.TuningRatio,
			p.RevalidationHits, p.Redescents, p.Refreshes)
	}
	return b.String()
}
