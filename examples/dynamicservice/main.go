// Dynamicservice: valid scopes change between broadcast cycles as data
// instances come and go (food trucks opening and closing across a city).
// The example maintains the Voronoi scopes incrementally, rebuilds the
// D-tree for each cycle, and shows that query results always track the
// current fleet while the index overhead stays flat.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

func main() {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	rng := rand.New(rand.NewSource(8))

	// Twenty trucks to start the day.
	var sites []geom.Point
	for i := 0; i < 20; i++ {
		sites = append(sites, geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}
	m, err := voronoi.NewMaintainer(area, sites)
	if err != nil {
		log.Fatal(err)
	}

	probe := geom.Pt(5200, 4800) // a hungry client downtown
	lastNearest := -1
	for cycle := 1; cycle <= 6; cycle++ {
		// Fleet churn between cycles: a truck opens, one closes. On cycle 3
		// the client's favorite truck itself shuts down.
		opened, _ := m.Add(geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
		var closed int
		ids, _ := m.LiveSites()
		closed = ids[rng.Intn(len(ids))]
		if cycle == 3 && lastNearest >= 0 {
			closed = lastNearest
		}
		if closed == opened {
			closed = ids[0]
		}
		if err := m.Remove(closed); err != nil {
			log.Fatal(err)
		}

		// Rebuild this cycle's broadcast index from the maintained scopes.
		sub, regionToSite, err := m.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		tree, err := core.Build(sub)
		if err != nil {
			log.Fatal(err)
		}
		paged, err := tree.Page(wire.DTreeParams(256))
		if err != nil {
			log.Fatal(err)
		}
		fp := paged.Flatten()

		region, trace := fp.Locate(probe)
		truck := regionToSite[region]
		lastNearest = truck
		loc, _ := m.Site(truck)
		fmt.Printf("cycle %d: %2d trucks (opened #%d, closed #%d) — index %2d packets; nearest truck to downtown: #%d at (%4.0f,%4.0f), found in %d packet reads\n",
			cycle, m.Len(), opened, closed, fp.IndexPackets(), truck, loc.X, loc.Y, len(trace))
	}
}
