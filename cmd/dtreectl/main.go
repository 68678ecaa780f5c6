// Command dtreectl builds a D-tree over a dataset and inspects it: summary
// statistics, a per-level profile, the packet layout for a given capacity,
// and interactive point queries. Two subcommands manage index snapshots:
// `snapshot` builds the one-channel broadcast and writes its index packets
// into the snapshot directory `broadcastd -snapshot-dir` restarts from
// (DIR/shard0.dtsnap), and `restore` decodes a snapshot file back into the
// serving arena, verifies it, and answers point queries from it — proving
// the file serves without a rebuild.
//
// Usage:
//
//	dtreectl -dataset uniform [-n 1000] [-capacity 512] [-levels] [-query x,y]...
//	dtreectl snapshot -out DIR [-dataset uniform] [-n 1000] [-capacity 512]
//	dtreectl restore -in DIR/shard0.dtsnap [-query x,y]...
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/wire"
)

type queryList []geom.Point

func (q *queryList) String() string { return fmt.Sprint(*q) }

func (q *queryList) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return fmt.Errorf("want x,y")
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return err
	}
	*q = append(*q, geom.Pt(x, y))
	return nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "snapshot":
			runSnapshot(os.Args[2:])
			return
		case "restore":
			runRestore(os.Args[2:])
			return
		}
	}
	runInspect(os.Args[1:])
}

// pickDataset resolves the shared -dataset/-n/-seed triple.
func pickDataset(name string, n int, seed int64) dataset.Dataset {
	switch strings.ToLower(name) {
	case "uniform":
		return dataset.Uniform(n, seed)
	case "hospital":
		return dataset.Hospital()
	case "park":
		return dataset.Park()
	}
	fatal(fmt.Errorf("unknown dataset %q (want uniform, hospital or park)", name))
	panic("unreachable")
}

// buildFlat runs the full construction pipeline — Voronoi subdivision,
// D-tree build, paging, flattening — and returns the serving arena.
func buildFlat(ds dataset.Dataset, capacity int) (*core.Tree, *core.Paged, *core.FlatPaged) {
	sub, err := ds.Subdivision()
	if err != nil {
		fatal(err)
	}
	tree, err := core.Build(sub)
	if err != nil {
		fatal(err)
	}
	paged, err := tree.Page(wire.DTreeParams(capacity))
	if err != nil {
		fatal(err)
	}
	return tree, paged, paged.Flatten()
}

// runInspect is the classic build-and-inspect mode.
func runInspect(args []string) {
	fs := flag.NewFlagSet("dtreectl", flag.ExitOnError)
	var queries queryList
	var (
		name     = fs.String("dataset", "uniform", "uniform, hospital or park")
		n        = fs.Int("n", 1000, "site count (uniform only)")
		seed     = fs.Int64("seed", 1000, "seed (uniform only)")
		capacity = fs.Int("capacity", 512, "packet capacity in bytes")
		levels   = fs.Bool("levels", false, "print a per-level profile")
	)
	fs.Var(&queries, "query", "point query x,y (repeatable)")
	fs.Parse(args)

	ds := pickDataset(*name, *n, *seed)
	tree, paged, fp := buildFlat(ds, *capacity)
	st := tree.Stats()
	fmt.Printf("%s: %d regions\n", ds.Name, tree.Sub.N())
	fmt.Printf("D-tree: %d nodes, height %d, %d partition points total (max %d in one node)\n",
		st.Nodes, st.Height, st.PartitionPoints, st.MaxNodePoints)
	fmt.Printf("paged at %d B/packet: %d packets, %d bytes occupied (%.1f%% utilization)\n",
		*capacity, paged.IndexPackets(), paged.Layout.SizeBytes(), 100*paged.Layout.Utilization())

	if *levels {
		printLevels(tree, wire.DTreeParams(*capacity))
	}
	for _, q := range queries {
		id, trace := fp.Locate(q)
		fmt.Printf("query (%g, %g) -> region %d (site %v), %d packet accesses: %v\n",
			q.X, q.Y, id, ds.Sites[id], len(trace), trace)
	}
}

// runSnapshot builds the one-channel broadcast and writes its snapshot
// directory: exactly what broadcastd -snapshot-dir writes and restores.
func runSnapshot(args []string) {
	fs := flag.NewFlagSet("dtreectl snapshot", flag.ExitOnError)
	var (
		name     = fs.String("dataset", "uniform", "uniform, hospital or park")
		n        = fs.Int("n", 1000, "site count (uniform only)")
		seed     = fs.Int64("seed", 1000, "seed (uniform only)")
		capacity = fs.Int("capacity", 512, "packet capacity in bytes")
		out      = fs.String("out", "", "snapshot directory to write (required)")
	)
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("snapshot: -out is required"))
	}
	ds := pickDataset(*name, *n, *seed)
	f, err := fabric.Build(ds.Area, ds.Sites, 1, *capacity, fabric.Options{})
	if err != nil {
		fatal(err)
	}
	if err := f.WriteSnapshotDir(*out); err != nil {
		fatal(err)
	}
	path := fabric.SnapshotPath(*out, 0)
	st, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	fp := f.Shards[0].Flat
	fmt.Printf("%s: %d regions, %d B packets, index %d packets\n",
		ds.Name, fp.Flat.N, *capacity, fp.IndexPackets())
	fmt.Printf("snapshot written to %s: %d bytes (the %d index packets plus header and CRC; %d B occupied)\n",
		path, st.Size(), fp.IndexPackets(), fp.SizeBytes())
}

// runRestore loads a snapshot — decoding its packets into the serving
// arena, which must re-encode to the same bytes — and answers any -query
// points from the restored arena.
func runRestore(args []string) {
	fs := flag.NewFlagSet("dtreectl restore", flag.ExitOnError)
	var queries queryList
	in := fs.String("in", "", "snapshot file to load (required)")
	fs.Var(&queries, "query", "point query x,y (repeatable)")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("restore: -in is required"))
	}
	fp, err := core.LoadSnapshotFile(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("restored %s: %d regions, %d B packets, index %d packets (%d B occupied) — checksum verified, packets decoded and re-encoded byte for byte\n",
		*in, fp.Flat.N, fp.Params.PacketCapacity, fp.IndexPackets(), fp.SizeBytes())
	var trace []int
	for _, q := range queries {
		var id int
		id, trace = fp.LocateInto(q, trace[:0])
		fmt.Printf("query (%g, %g) -> region %d, %d packet accesses: %v\n",
			q.X, q.Y, id, len(trace), trace)
	}
}

func printLevels(tree *core.Tree, params wire.Params) {
	type agg struct{ n, pts, bytes int }
	levels := map[int]*agg{}
	deepest := 0
	var walk func(c core.ChildRef, lvl int)
	walk = func(c core.ChildRef, lvl int) {
		if c.IsData() {
			return
		}
		a := levels[lvl]
		if a == nil {
			a = &agg{}
			levels[lvl] = a
		}
		a.n++
		a.pts += c.Node.PartitionPoints()
		a.bytes += core.NodeSize(c.Node, params)
		if lvl > deepest {
			deepest = lvl
		}
		walk(c.Node.Left, lvl+1)
		walk(c.Node.Right, lvl+1)
	}
	walk(core.ChildRef{Node: tree.Root}, 0)
	fmt.Println("level   nodes   avg points   avg bytes")
	for l := 0; l <= deepest; l++ {
		a := levels[l]
		fmt.Printf("%5d %7d %12.1f %11.1f\n", l, a.n, float64(a.pts)/float64(a.n), float64(a.bytes)/float64(a.n))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtreectl:", err)
	os.Exit(1)
}
