package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"airindex/internal/geom"
)

// Moving-client trajectories for the continuous-query workload: a client
// holds a standing window/kNN query while its position advances one step per
// broadcast cycle. Positions are materialized up front (one point per
// cycle), so a trajectory is a plain value: deterministic for a given seed,
// JSON-serializable, and replayable bit-for-bit — Go prints float64 with the
// shortest round-tripping representation, so Marshal/Unmarshal preserves
// every position exactly.

// Trajectory is one client's path, sampled at broadcast-cycle granularity.
type Trajectory struct {
	Model     string       `json:"model"`
	Seed      int64        `json:"seed"`
	Positions []geom.Point `json:"positions"`
}

// At returns the client position at the given cycle, holding the last
// position once the path is exhausted (the client parks).
func (t *Trajectory) At(cycle int) geom.Point {
	if len(t.Positions) == 0 {
		return geom.Point{}
	}
	if cycle < 0 {
		cycle = 0
	}
	if cycle >= len(t.Positions) {
		cycle = len(t.Positions) - 1
	}
	return t.Positions[cycle]
}

// RandomWaypoint generates the classic random-waypoint model inside area:
// pick a uniform target and a uniform per-leg speed in [speedMin, speedMax]
// (distance units per cycle), walk straight at that speed, then pick the
// next target on arrival. Every position lies inside area.
func RandomWaypoint(area geom.Rect, horizon int, seed int64, speedMin, speedMax float64) Trajectory {
	rng := rand.New(rand.NewSource(seed))
	uniform := func() geom.Point {
		return geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
	}
	t := Trajectory{Model: "waypoint", Seed: seed, Positions: make([]geom.Point, 0, horizon)}
	pos := uniform()
	target := uniform()
	speed := legSpeed(rng, speedMin, speedMax)
	for len(t.Positions) < horizon {
		t.Positions = append(t.Positions, pos)
		for pos.Dist(target) <= speed {
			pos = target
			target = uniform()
			speed = legSpeed(rng, speedMin, speedMax)
		}
		d := target.Sub(pos)
		pos = pos.Add(d.Scale(speed / math.Hypot(d.X, d.Y)))
	}
	return t
}

// Commuter generates a locality-heavy model: the client shuttles between a
// few anchor points (think home, work, gym), dwelling several cycles at each
// before walking to the next at a per-leg speed in [speedMin, speedMax].
// Long dwells mean many cycles without a region-boundary crossing, the case
// incremental revalidation exists for.
func Commuter(area geom.Rect, horizon int, seed int64, anchors int, speedMin, speedMax float64, maxDwell int) Trajectory {
	if anchors < 2 {
		anchors = 2
	}
	if maxDwell < 1 {
		maxDwell = 1
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, anchors)
	for i := range pts {
		pts[i] = geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
	}
	t := Trajectory{Model: "commuter", Seed: seed, Positions: make([]geom.Point, 0, horizon)}
	cur := 0
	pos := pts[cur]
	dwell := 1 + rng.Intn(maxDwell)
	var target geom.Point
	walking := false
	speed := 0.0
	for len(t.Positions) < horizon {
		t.Positions = append(t.Positions, pos)
		if !walking {
			if dwell--; dwell <= 0 {
				next := (cur + 1 + rng.Intn(anchors-1)) % anchors
				cur = next
				target = pts[next]
				speed = legSpeed(rng, speedMin, speedMax)
				walking = true
			}
			continue
		}
		if pos.Dist(target) <= speed {
			pos = target
			walking = false
			dwell = 1 + rng.Intn(maxDwell)
			continue
		}
		d := target.Sub(pos)
		pos = pos.Add(d.Scale(speed / math.Hypot(d.X, d.Y)))
	}
	return t
}

// legSpeed draws one leg's speed uniformly from [speedMin, speedMax],
// clamped to a small positive floor so legs always make progress.
func legSpeed(rng *rand.Rand, speedMin, speedMax float64) float64 {
	if speedMax < speedMin {
		speedMax = speedMin
	}
	s := speedMin + rng.Float64()*(speedMax-speedMin)
	if s < 1e-6 {
		s = 1e-6
	}
	return s
}

// Fleet generates n trajectories of the named model ("waypoint" or
// "commuter") with seeds derived from one base seed, so a whole run is
// pinned by (model, n, horizon, seed).
func Fleet(model string, area geom.Rect, n, horizon int, seed int64, speedMin, speedMax float64) ([]Trajectory, error) {
	out := make([]Trajectory, n)
	for i := range out {
		s := seed + int64(i)*1664525 + 1013904223
		switch model {
		case "waypoint":
			out[i] = RandomWaypoint(area, horizon, s, speedMin, speedMax)
		case "commuter":
			out[i] = Commuter(area, horizon, s, 3, speedMin, speedMax, 8)
		default:
			return nil, fmt.Errorf("dataset: unknown trajectory model %q (want waypoint or commuter)", model)
		}
	}
	return out, nil
}
