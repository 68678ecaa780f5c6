package core

import (
	"fmt"
	"reflect"
	"slices"
)

// ArenaDiff names the first field in which arenas a and b differ, or
// returns "" when they are equal field for field: records (derived band
// limits, headers and first packets included), pools, packet tables,
// parameters, source fingerprint and adjacency table. The external tests
// (decode_test.go) compare arenas built by other packages through it.
func ArenaDiff(a, b *FlatPaged) string {
	fa, fb := a.Flat, b.Flat
	switch {
	case a.Params != b.Params:
		return fmt.Sprintf("params %+v vs %+v", a.Params, b.Params)
	case a.Source != b.Source:
		return fmt.Sprintf("source %x vs %x", a.Source, b.Source)
	case fa.N != fb.N:
		return fmt.Sprintf("regions %d vs %d", fa.N, fb.N)
	case len(fa.nodes) != len(fb.nodes):
		return fmt.Sprintf("%d vs %d nodes", len(fa.nodes), len(fb.nodes))
	}
	for i := range fa.nodes {
		if fa.nodes[i] != fb.nodes[i] {
			return fmt.Sprintf("node %d: %+v vs %+v", i, fa.nodes[i], fb.nodes[i])
		}
	}
	for _, c := range []struct {
		name string
		x, y []int32
	}{
		{"pktIdx", a.pktIdx, b.pktIdx},
		{"pkts", a.pkts, b.pkts},
		{"pnIdx", a.pnIdx, b.pnIdx},
		{"packetNodes", a.packetNodes, b.packetNodes},
		{"occupied", a.occupied, b.occupied},
	} {
		if !slices.Equal(c.x, c.y) {
			return c.name + " differs"
		}
	}
	switch {
	case a.packetCount != b.packetCount:
		return fmt.Sprintf("%d vs %d packets", a.packetCount, b.packetCount)
	case !slices.Equal(fa.polys, fb.polys):
		return "polyline spans differ"
	case !slices.Equal(fa.pts, fb.pts):
		return "points differ"
	case !reflect.DeepEqual(fa.adj, fb.adj):
		return "adjacency tables differ"
	}
	return ""
}
