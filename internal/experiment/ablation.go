package experiment

import (
	"fmt"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/wire"
)

// Ablation variants of the D-tree, isolating the design choices DESIGN.md
// calls out: partition-style search, inter-prob tie-breaking, top-down
// paging, and RMC/LMC early termination.
var AblationVariants = []string{
	"D-tree",               // the full design
	"single-style",         // one fixed partition style per node
	"no-tiebreak",          // first minimal-size style, no inter-prob
	"greedy-paging",        // BFS greedy packing instead of Algorithm 3
	"no-early-termination", // read whole multi-packet nodes always
}

// noEarlyIndex is the D-tree arena read without the RMC/LMC first-packet
// shortcut: every packet of every visited node is downloaded.
type noEarlyIndex struct{ dtreeIndex }

func (n noEarlyIndex) Locate(p geom.Point) (int, []int) {
	return n.fp.LocateWithoutEarlyTerminationInto(p, nil)
}
func (n noEarlyIndex) LocateInto(p geom.Point, trace []int) (int, []int) {
	return n.fp.LocateWithoutEarlyTerminationInto(p, trace)
}

// RunAblation measures the D-tree variants over one dataset, reusing the
// standard measurement pipeline (the variant name appears as the index
// name).
func RunAblation(ds dataset.Dataset, cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	sub, err := ds.Subdivision()
	if err != nil {
		return nil, err
	}
	full, err := core.Build(sub)
	if err != nil {
		return nil, err
	}
	single, err := core.Build(sub, core.WithSingleStyle(core.DimY, true))
	if err != nil {
		return nil, err
	}
	noTie, err := core.Build(sub, core.WithoutTieBreak())
	if err != nil {
		return nil, err
	}

	sampler := NewSampler(sub)
	sampler.ByArea = cfg.ByArea
	b := &Built{Data: ds, Sub: sub, DTree: full}

	var out []Measurement
	for _, capacity := range cfg.Capacities {
		params := wire.DTreeParams(capacity)
		fullPg, err := full.Page(params)
		if err != nil {
			return nil, err
		}
		singlePg, err := single.Page(params)
		if err != nil {
			return nil, err
		}
		noTiePg, err := noTie.Page(params)
		if err != nil {
			return nil, err
		}
		greedyPg, err := full.PageGreedy(params)
		if err != nil {
			return nil, err
		}
		fullFp := fullPg.Flatten()
		indexes := []Index{
			dtreeIndex{"D-tree", fullFp},
			dtreeIndex{"single-style", singlePg.Flatten()},
			dtreeIndex{"no-tiebreak", noTiePg.Flatten()},
			dtreeIndex{"greedy-paging", greedyPg.Flatten()},
			noEarlyIndex{dtreeIndex{"no-early-termination", fullFp}},
		}
		ms, err := measureIndexes(b, sampler, indexes, capacity, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation at %d bytes: %w", capacity, err)
		}
		out = append(out, ms...)
	}
	return out, nil
}
