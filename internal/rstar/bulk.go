package rstar

import (
	"fmt"
	"math"
	"sort"
)

// BulkLoadSTR builds a packed R-tree with the Sort-Tile-Recursive algorithm
// (Leutenegger et al., ICDE 1997): entries are sorted by center x, cut into
// vertical slices of ~sqrt(n/M) tiles, each slice sorted by center y and
// packed into full nodes. STR trees have near-minimal directory overlap, so
// they bound how much of the R*-tree baseline's tuning cost is construction
// quality rather than the approximation approach itself.
func BulkLoadSTR(items []Entry, maxEntries int) (*Tree, error) {
	if maxEntries < 2 {
		return nil, fmt.Errorf("rstar: max entries %d must be >= 2", maxEntries)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("rstar: nothing to bulk load")
	}
	t, err := New(maxEntries, 0)
	if err != nil {
		return nil, err
	}
	level := 0
	entries := append([]Entry(nil), items...)
	for len(entries) > maxEntries {
		nodes := packLevel(entries, maxEntries, level)
		entries = entries[:0]
		for _, n := range nodes {
			entries = append(entries, Entry{Rect: n.rect(), Child: n})
		}
		level++
	}
	t.root = &node{level: level, entries: entries}
	t.size = len(items)
	return t, nil
}

// packLevel groups entries into nodes of up to m entries using STR tiling.
func packLevel(entries []Entry, m, level int) []*node {
	n := len(entries)
	nodeCount := (n + m - 1) / m
	slices := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlice := slices * m

	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Rect.Center().X < entries[j].Rect.Center().X
	})
	var out []*node
	for s := 0; s < n; s += perSlice {
		end := min(s+perSlice, n)
		slice := entries[s:end]
		sort.SliceStable(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for o := 0; o < len(slice); o += m {
			e := min(o+m, len(slice))
			nd := &node{level: level, entries: append([]Entry(nil), slice[o:e]...)}
			out = append(out, nd)
		}
	}
	return out
}
