package dataset

import (
	"reflect"
	"testing"

	"airindex/internal/geom"
)

var trajArea = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

func TestTrajectoryDeterministicAndBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(seed int64) Trajectory
	}{
		{"waypoint", func(seed int64) Trajectory { return RandomWaypoint(trajArea, 200, seed, 50, 900) }},
		{"commuter", func(seed int64) Trajectory { return Commuter(trajArea, 200, seed, 4, 50, 900, 6) }},
	} {
		a, b := tc.gen(42), tc.gen(42)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different trajectories", tc.name)
		}
		if c := tc.gen(43); reflect.DeepEqual(a.Positions, c.Positions) {
			t.Fatalf("%s: different seeds produced identical trajectories", tc.name)
		}
		if len(a.Positions) != 200 {
			t.Fatalf("%s: %d cycles, want 200", tc.name, len(a.Positions))
		}
		for i, p := range a.Positions {
			if !trajArea.Contains(p) {
				t.Fatalf("%s: position %d = %v escapes the service area", tc.name, i, p)
			}
		}
		moved := false
		for i := 1; i < len(a.Positions); i++ {
			if a.Positions[i] != a.Positions[i-1] {
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("%s: the client never moved", tc.name)
		}
	}
}

func TestTrajectoryAtParks(t *testing.T) {
	tr := RandomWaypoint(trajArea, 10, 7, 100, 200)
	if got, want := tr.At(-3), tr.Positions[0]; got != want {
		t.Fatalf("At(-3) = %v, want first position %v", got, want)
	}
	if got, want := tr.At(10_000), tr.Positions[9]; got != want {
		t.Fatalf("At past the horizon = %v, want parked last position %v", got, want)
	}
	var empty Trajectory
	if got := empty.At(5); got != (geom.Point{}) {
		t.Fatalf("empty trajectory At = %v, want origin", got)
	}
}

func TestFleetSeedsDiffer(t *testing.T) {
	fleet, err := Fleet("waypoint", trajArea, 4, 32, 5, 50, 700)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fleet); i++ {
		if reflect.DeepEqual(fleet[0].Positions, fleet[i].Positions) {
			t.Fatalf("fleet members 0 and %d share a path", i)
		}
	}
	if _, err := Fleet("teleport", trajArea, 1, 8, 5, 50, 700); err == nil {
		t.Fatal("unknown model accepted")
	}
}
