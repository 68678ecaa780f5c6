// Command broadcastd serves a location-dependent dataset as a live (1, m)
// broadcast over TCP: every connection receives the framed packet stream —
// D-tree index copies interleaved with data buckets — exactly as the paper
// organizes the wireless channel. The channel can be made unreliable with
// the -loss/-burst/-corrupt flags (internal/channel fault models), in which
// case clients recover via the checksum and the next-index pointers. With
// -churn the site population changes while serving: random add/remove/move
// batches run through the incremental Voronoi maintainer and each rebuilt
// program is hot-swapped onto the air under a new generation, which live
// clients follow by restarting any query the swap caught mid-flight.
// SIGINT/SIGTERM drain connections to their cycle boundary before exiting.
// With -demo it also connects a client, runs a few queries through the
// streamed access protocol, and reports latency, tuning and recovery
// counts.
//
// With -snapshot the daemon restores its index from a snapshot — the
// broadcast's own index packets — written by `dtreectl snapshot` (or a
// previous server's Swapper generation) instead of rebuilding the D-tree
// from the dataset: it decodes the packets back into the serving arena, and
// the restored program broadcasts cycles byte-identical to the writer's, so
// a restart serves the same air index without paying construction.
//
// With -snapshot-dir the sharded daemon gets the same zero-parse restart:
// if the directory holds one `shardN.dtsnap` per shard the fabric is
// restored from the snapshots (no D-tree is built — only the cheap geometry
// is recomputed to validate the snapshots and pin the global numbering), and
// otherwise the daemon builds from -dataset and writes the per-shard
// snapshots there for the next start.
//
// Every run serves a fabric (internal/fabric) of -shards S channels; S = 1
// is the single channel, byte for byte. With S > 1 the service area is
// split into S balanced spatial partitions, each broadcast on its own
// listener (ports base..base+S-1 when -addr names a fixed port) with its
// own D-tree and generation counter, every index copy carries the
// replicated channel directory so a client's first probe routes to the
// owning shard, metric names carry per-shard prefixes, and -churn
// republishes only the shards a batch actually touched.
//
// Usage:
//
//	broadcastd [-addr :7343] [-dataset hospital] [-capacity 256]
//	           [-snapshot index.dtsnap] [-snapshot-dir ""] [-shards 1]
//	           [-adjacency] [-slot-duration 0] [-seed 1]
//	           [-loss 0] [-burst 1] [-corrupt 0]
//	           [-churn 0] [-churn-ops 4] [-write-timeout 30s]
//	           [-drain-timeout 10s] [-debug-addr ""] [-demo]
//	           [-ingest-addr ""] [-ingest-queue 4096] [-ingest-policy reject]
//	           [-cut-max-ops 256] [-cut-interval 200ms]
//
// With -ingest-addr the daemon also accepts live site updates over HTTP:
// POST /ingest takes a JSON batch ({"ops":[{"op":"add","id":-1,"x":..,
// "y":..},{"op":"move","id":17,...},{"op":"remove","id":17}]}), admits it
// into a bounded queue (429 + Retry-After when full, policy configurable
// via -ingest-policy), coalesces per-site redundancy, and cuts hot-swapped
// generations at the -cut-max-ops / -cut-interval pace. Negative ids are
// client-chosen provisional handles for sites added in the same stream;
// SIGINT/SIGTERM drain the queue through final cuts before the broadcast
// stops. Requires a maintainable index, so it rejects -snapshot and
// -snapshot-dir, and like -churn it requires an explicit -seed.
//
// With -adjacency every index copy is prefixed with the self-describing
// region-adjacency appendix (neighbor lists + site coordinates), the wire
// substrate for continuous queries: a moving client caches the appendix
// once and answers standing window and kNN queries radio-free each cycle,
// revalidating instead of re-descending. Point-query demos skip the
// appendix via the length named in packet 0. Works with -churn and -shards;
// snapshots pin their own layout, so -snapshot/-snapshot-dir reject it
// (a snapshot that stores the appendix restores it automatically).
//
// With -debug-addr the daemon also serves an HTTP debug endpoint:
// /metrics (the counters and histograms of every shard as JSON), /healthz
// (per-shard cycle position, generation on the air, connection count) and
// /trace (recent per-query Probe→Answer traces; populated by the -demo
// client).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"airindex/internal/channel"
	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/experiment"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/ingest"
	"airindex/internal/obs"
	"airindex/internal/stream"
)

// config carries every flag value plus which ones were set explicitly, so
// validation can reject combinations whose defaults would silently lie
// (churn without a pinned seed is not reproducible).
type config struct {
	addr      string
	dataset   string
	n         int
	capacity  int
	snapshot  string
	snapDir   string
	shards    int
	slotDur   time.Duration
	seed      int64
	seedSet   bool
	loss      float64
	burst     float64
	corrupt   float64
	churn     time.Duration
	churnOps  int
	writeTO   time.Duration
	drainTO   time.Duration
	dbgAddr   string
	demo      bool
	adjacency bool

	ingestAddr   string
	ingestQueue  int
	ingestPolicy string
	cutMaxOps    int
	cutInterval  time.Duration
	ingestTuned  []string // ingest tuning flags the user set explicitly
}

// validateConfig rejects nonsensical flag combinations before any listener
// is opened. It is pure so the rules are unit-testable.
func validateConfig(c config) error {
	switch strings.ToLower(c.dataset) {
	case "uniform", "hospital", "park":
	default:
		return fmt.Errorf("unknown dataset %q (want uniform, hospital or park)", c.dataset)
	}
	if c.n < 1 {
		return fmt.Errorf("-n %d: need at least one site", c.n)
	}
	if c.capacity < 32 {
		return fmt.Errorf("-capacity %d: packets below 32 bytes cannot carry the frame header and payload stamps", c.capacity)
	}
	if c.shards < 1 {
		return fmt.Errorf("-shards %d: need at least one channel", c.shards)
	}
	if c.loss < 0 || c.loss >= 1 {
		return fmt.Errorf("-loss %v: loss rate must be in [0, 1)", c.loss)
	}
	if c.corrupt < 0 || c.corrupt >= 1 {
		return fmt.Errorf("-corrupt %v: corruption rate must be in [0, 1)", c.corrupt)
	}
	if c.burst < 1 {
		return fmt.Errorf("-burst %v: mean burst length must be >= 1 frame", c.burst)
	}
	if c.churn < 0 {
		return fmt.Errorf("-churn %v: churn interval cannot be negative", c.churn)
	}
	if c.churn > 0 && !c.seedSet {
		return fmt.Errorf("-churn %v without an explicit -seed: churned runs must be reproducible, pass -seed", c.churn)
	}
	if c.snapshot != "" && c.churn > 0 {
		return fmt.Errorf("-snapshot with -churn: a restored arena has no site maintainer to churn; rebuild from -dataset instead")
	}
	if c.snapshot != "" && c.shards > 1 {
		return fmt.Errorf("-snapshot with -shards %d: snapshots restore a single channel's index; use -snapshot-dir for per-shard restore", c.shards)
	}
	if c.snapDir != "" && c.shards <= 1 {
		return fmt.Errorf("-snapshot-dir with -shards %d: per-shard snapshots need a sharded fabric; use -snapshot for a single channel", c.shards)
	}
	if c.snapDir != "" && c.churn > 0 {
		return fmt.Errorf("-snapshot-dir with -churn: a restored arena has no site maintainer to churn; rebuild from -dataset instead")
	}
	if c.snapDir != "" && c.snapshot != "" {
		return fmt.Errorf("-snapshot and -snapshot-dir are mutually exclusive")
	}
	if c.adjacency && c.snapshot != "" {
		return fmt.Errorf("-adjacency with -snapshot: the snapshot pins whether the broadcast carries the appendix (a snapshot that stores the appendix restores it); rebuild from -dataset to change it")
	}
	if c.adjacency && c.snapDir != "" {
		return fmt.Errorf("-adjacency with -snapshot-dir: the snapshots pin whether the broadcast carries the appendix (a snapshot that stores the appendix restores it); rebuild from -dataset to change it")
	}
	if c.churnOps < 1 {
		return fmt.Errorf("-churn-ops %d: a churn batch needs at least one site operation", c.churnOps)
	}
	if c.slotDur < 0 {
		return fmt.Errorf("-slot-duration %v: cannot be negative", c.slotDur)
	}
	if c.writeTO < 0 {
		return fmt.Errorf("-write-timeout %v: cannot be negative", c.writeTO)
	}
	if c.drainTO <= 0 {
		return fmt.Errorf("-drain-timeout %v: must be positive", c.drainTO)
	}
	if c.ingestAddr != "" {
		if c.snapshot != "" {
			return fmt.Errorf("-ingest-addr with -snapshot: a restored arena has no site maintainer to ingest into; rebuild from -dataset instead")
		}
		if c.snapDir != "" {
			return fmt.Errorf("-ingest-addr with -snapshot-dir: a restored arena has no site maintainer to ingest into; rebuild from -dataset instead")
		}
		if !c.seedSet {
			return fmt.Errorf("-ingest-addr without an explicit -seed: live-update runs must be reproducible, pass -seed")
		}
	} else if len(c.ingestTuned) > 0 {
		return fmt.Errorf("-%s without -ingest-addr: ingest tuning has no effect when the ingest endpoint is disabled", c.ingestTuned[0])
	}
	if c.ingestQueue < 1 {
		return fmt.Errorf("-ingest-queue %d: the admission ring needs at least one slot", c.ingestQueue)
	}
	if c.cutMaxOps < 1 {
		return fmt.Errorf("-cut-max-ops %d: a generation cut needs at least one operation", c.cutMaxOps)
	}
	if c.cutInterval <= 0 {
		return fmt.Errorf("-cut-interval %v: must be positive", c.cutInterval)
	}
	if _, err := ingest.ParsePolicy(c.ingestPolicy); err != nil {
		return fmt.Errorf("-ingest-policy: %w", err)
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7343", "listen address (with -shards S > 1 and a fixed port, shard i listens on port+i)")
	flag.StringVar(&cfg.dataset, "dataset", "hospital", "uniform, hospital or park")
	flag.IntVar(&cfg.n, "n", 1000, "site count (uniform only)")
	flag.IntVar(&cfg.capacity, "capacity", 256, "packet capacity in bytes")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "restore the index from this snapshot file of index packets instead of building it (see dtreectl snapshot)")
	flag.StringVar(&cfg.snapDir, "snapshot-dir", "", "with -shards S > 1: restore every shard from DIR/shardN.dtsnap when present, else build and write the per-shard snapshots there")
	flag.IntVar(&cfg.shards, "shards", 1, "broadcast channels; > 1 serves the sharded fabric with a replicated channel directory")
	flag.DurationVar(&cfg.slotDur, "slot-duration", 0, "real-time pacing per slot (0 = full speed)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for start slots, demo queries, churn and fault models (reproducible runs)")
	flag.Float64Var(&cfg.loss, "loss", 0, "frame loss rate per connection, [0, 1)")
	flag.Float64Var(&cfg.burst, "burst", 1, "mean loss-burst length in frames; > 1 selects bursty Gilbert-Elliott loss")
	flag.Float64Var(&cfg.corrupt, "corrupt", 0, "payload bit-corruption rate of delivered frames, [0, 1)")
	flag.DurationVar(&cfg.churn, "churn", 0, "interval between site-churn batches hot-swapped onto the air (0 = static program; requires -seed)")
	flag.IntVar(&cfg.churnOps, "churn-ops", 4, "site add/remove/move operations per churn batch")
	flag.DurationVar(&cfg.writeTO, "write-timeout", 30*time.Second, "per-write deadline; stalled clients are evicted (0 = never)")
	flag.DurationVar(&cfg.drainTO, "drain-timeout", 10*time.Second, "graceful-shutdown drain budget before stragglers are severed")
	flag.StringVar(&cfg.dbgAddr, "debug-addr", "", "serve /metrics, /healthz and /trace on this HTTP address (empty = disabled)")
	flag.BoolVar(&cfg.demo, "demo", false, "run a demo client against the server and exit")
	flag.BoolVar(&cfg.adjacency, "adjacency", false, "prefix every index copy with the region-adjacency appendix so continuous-query clients answer windows and kNN on air")
	flag.StringVar(&cfg.ingestAddr, "ingest-addr", "", "accept site add/remove/move batches as JSON POSTs on this HTTP address (empty = disabled; requires -seed)")
	flag.IntVar(&cfg.ingestQueue, "ingest-queue", 4096, "ingest admission ring capacity in operations (with -ingest-addr)")
	flag.StringVar(&cfg.ingestPolicy, "ingest-policy", "reject", "ingest overflow policy: reject, block or drop-move (with -ingest-addr)")
	flag.IntVar(&cfg.cutMaxOps, "cut-max-ops", 256, "cut a generation when this many coalesced operations are pending (with -ingest-addr)")
	flag.DurationVar(&cfg.cutInterval, "cut-interval", 200*time.Millisecond, "cut a generation at least this often while operations are pending (with -ingest-addr)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			cfg.seedSet = true
		case "ingest-queue", "ingest-policy", "cut-max-ops", "cut-interval":
			cfg.ingestTuned = append(cfg.ingestTuned, f.Name)
		}
	})
	if err := validateConfig(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "broadcastd: invalid flags:", err)
		flag.Usage()
		os.Exit(2)
	}

	var ds dataset.Dataset
	switch strings.ToLower(cfg.dataset) {
	case "uniform":
		ds = dataset.Uniform(cfg.n, 1000)
	case "hospital":
		ds = dataset.Hospital()
	case "park":
		ds = dataset.Park()
	}

	run(cfg, ds)
}

// run serves the dataset on cfg.shards channels, each with its own
// listener, program and generation counter. One channel is the paper's
// (1, m) broadcast; with S > 1 every index copy also carries the replicated
// channel directory, metrics and health are labeled per shard, and churn
// republishes only the shards a batch touched.
func run(cfg config, ds dataset.Dataset) {
	S := cfg.shards
	opts := fabric.Options{Adjacency: cfg.adjacency}
	// Churn and ingest run the swapper's program pipeline (Voronoi
	// maintainer -> D-tree build -> rendered cycle); snapshots restore the
	// programs from their index packets; else they compile once.
	var sw *fabric.Swapper
	var progs []*stream.Program
	dirPackets := 0
	srcName, instances := ds.Name, ds.N()
	switch {
	case cfg.churn > 0 || cfg.ingestAddr != "":
		var err error
		if sw, err = fabric.NewSwapper(ds.Area, ds.Sites, S, cfg.capacity, opts); err != nil {
			fatal(err)
		}
		progs, dirPackets = sw.Programs(), sw.DirPackets()
	case cfg.snapshot != "":
		prog, fp, err := stream.ProgramFromSnapshotFile(cfg.snapshot)
		if err != nil {
			fatal(err)
		}
		// The snapshot pins the packet geometry; the restored capacity
		// overrides -capacity so the demo client frames line up.
		cfg.capacity = fp.Params.PacketCapacity
		progs = []*stream.Program{prog}
		srcName, instances = fmt.Sprintf("snapshot %s", cfg.snapshot), fp.Flat.N
		fmt.Printf("broadcastd: restored index from %s: %d regions, no rebuild\n", cfg.snapshot, fp.Flat.N)
	case cfg.snapDir != "" && fileExists(fabric.SnapshotPath(cfg.snapDir, 0)):
		f, err := fabric.RestoreSnapshotDir(ds.Area, ds.Sites, S, cfg.snapDir, opts)
		if err != nil {
			fatal(err)
		}
		cfg.capacity = f.Capacity
		progs, dirPackets = f.Programs(), f.DirPackets
		fmt.Printf("broadcastd: restored %d shards from %s, no rebuild\n", S, cfg.snapDir)
	default:
		f, err := fabric.Build(ds.Area, ds.Sites, S, cfg.capacity, opts)
		if err != nil {
			fatal(err)
		}
		progs, dirPackets = f.Programs(), f.DirPackets
		if cfg.snapDir != "" {
			if err := f.WriteSnapshotDir(cfg.snapDir); err != nil {
				fatal(err)
			}
			fmt.Printf("broadcastd: wrote %d shard snapshots to %s for the next start\n", S, cfg.snapDir)
		}
	}

	reg := obs.NewRegistry()
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(cfg.seed))
	stats := &channel.Stats{}
	srvs, addrs := make([]*stream.Server, S), make([]string, S)
	var frames, rendered int
	for ch, prog := range progs {
		ln, err := net.Listen("tcp", shardAddr(cfg.addr, ch))
		if err != nil {
			fatal(err)
		}
		srv, err := stream.NewServer(ln, prog)
		if err != nil {
			fatal(err)
		}
		// One channel keeps the unprefixed metric names and log lines.
		metricPrefix, logPrefix := "", "broadcastd: "
		if S > 1 {
			metricPrefix, logPrefix = fmt.Sprintf("shard%d_", ch), fmt.Sprintf("broadcastd: shard %d: ", ch)
		}
		srv.UseMetrics(stream.NewMetricsIn(reg, metricPrefix))
		srv.SlotDuration = cfg.slotDur
		srv.WriteTimeout = cfg.writeTO
		srv.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, logPrefix+format+"\n", args...)
		}
		srv.StartSlot = tuneIn(&rngMu, rng, prog.Sched.CycleLen())
		spec := channel.Spec{Loss: cfg.loss, Burst: cfg.burst, Corrupt: cfg.corrupt, Seed: cfg.seed + int64(ch)}
		if err := spec.Validate(); err != nil {
			fatal(err)
		}
		if spec.Enabled() {
			srv.Channel = spec.Factory(stats)
		}
		if sw != nil {
			sw.Bind(ch, srv)
		}
		// Render the cycle's payload-CRC tables up front so the first
		// connection synthesizes frames from them instead of paying the build.
		f, b, err := prog.RenderedSize()
		if err != nil {
			fatal(err)
		}
		frames, rendered = frames+f, rendered+b
		srvs[ch], addrs[ch] = srv, ln.Addr().String()
	}

	// Debug endpoint: metrics, health, and the demo client's query traces.
	traces := obs.NewTraceLog(256)
	serveDebug(cfg.dbgAddr, reg, func() any {
		if S == 1 {
			return srvs[0].Health()
		}
		health := make(map[string]any, S)
		for ch, srv := range srvs {
			health[fmt.Sprintf("shard%d", ch)] = srv.Health()
		}
		return health
	}, traces)

	if S == 1 {
		prog := progs[0]
		fmt.Printf("broadcastd: %s, %d instances, %d B packets, index %d packets, m=%d, cycle %d slots, listening on %s\n",
			srcName, instances, cfg.capacity, len(prog.IndexPackets), prog.Sched.M, prog.Sched.CycleLen(), srvs[0].Addr())
	} else {
		fmt.Printf("broadcastd: %s, %d instances, %d B packets, %d shards, directory %d packet(s) replicated on every channel\n",
			srcName, instances, cfg.capacity, S, dirPackets)
		for ch, srv := range srvs {
			prog := progs[ch]
			fmt.Printf("broadcastd: shard %d on %s: index %d packets, m=%d, cycle %d slots\n",
				ch, srv.Addr(), len(prog.IndexPackets), prog.Sched.M, prog.Sched.CycleLen())
		}
	}
	fmt.Printf("broadcastd: rendered cycle cached: %d frames, %.1f KB of payload CRCs\n", frames, float64(rendered)/1024)
	switch {
	case cfg.adjacency && S == 1:
		adjPkts, err := core.AdjacencyPacketCount(progs[0].IndexPackets[0])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("broadcastd: adjacency appendix on air: %d packet(s) ahead of each index copy\n", adjPkts)
	case cfg.adjacency:
		fmt.Printf("broadcastd: adjacency appendix on air behind every channel directory (continuous window/kNN enabled)\n")
	}
	switch spec := (channel.Spec{Loss: cfg.loss, Burst: cfg.burst, Corrupt: cfg.corrupt, Seed: cfg.seed}); {
	case spec.Enabled() && S == 1:
		fmt.Printf("broadcastd: unreliable channel: %s loss %.2f%% (burst %.1f), corruption %.2f%%, seed %d\n",
			spec.Model(spec.Seed).Name(), 100*cfg.loss, cfg.burst, 100*cfg.corrupt, cfg.seed)
	case spec.Enabled():
		fmt.Printf("broadcastd: unreliable channels: loss %.2f%% (burst %.1f), corruption %.2f%%, per-shard seeds %d..%d\n",
			100*cfg.loss, cfg.burst, 100*cfg.corrupt, cfg.seed, cfg.seed+int64(S-1))
	}

	var pipe *ingest.Pipeline
	var ingestLn net.Listener
	if cfg.ingestAddr != "" {
		pipe, ingestLn = startIngest(cfg, ingest.FabricSink(sw), reg)
	}
	stopChurn := make(chan struct{})
	if cfg.churn > 0 {
		how := "hot-swapped at cycle boundaries"
		if S > 1 {
			how = "republishing only the shards each batch touches"
		}
		fmt.Printf("broadcastd: live churn: %d site ops every %v, %s\n", cfg.churnOps, cfg.churn, how)
		go runChurn(sw, cfg.churn, cfg.churnOps, ds.N(), cfg.seed+99, stopChurn)
	}
	serveErr := make(chan error, S)
	for _, srv := range srvs {
		go func() { serveErr <- srv.Serve() }()
	}

	if !cfg.demo {
		waitForSignal(cfg, stopChurn, pipe, ingestLn, srvs, serveErr)
		return
	}
	cm := stream.NewClientMetrics()
	demo(cfg, ds, addrs, sw != nil || cfg.adjacency, cm, traces)
	if lat, tune := cm.LatencySlots.Snapshot(), cm.TuningPackets.Snapshot(); lat.Count > 0 {
		fmt.Printf("demo: %d queries, latency p50 %d / p99 %d slots, tuning p50 %d / p99 %d packets\n",
			lat.Count, lat.P50, lat.P99, tune.P50, tune.P99)
	}
	if cfg.loss > 0 || cfg.corrupt > 0 {
		fmt.Printf("channel: %v\n", stats.Snapshot())
	}
	shutdownAll(cfg, stopChurn, pipe, ingestLn, srvs, serveErr)
}

// demo runs the demo's point queries through the fabric client. With
// S > 1 each enters on a random channel and may hop; a lone channel has no
// directory, so its queries run the single channel's access protocol and
// print its line. live appends each answer's generation to its line
// (swapper-fed broadcasts and -adjacency runs).
func demo(cfg config, ds dataset.Dataset, addrs []string, live bool, cm *stream.ClientMetrics, traces *obs.TraceLog) {
	client := fabric.NewClient(addrs, cfg.capacity)
	defer client.Close()
	client.Metrics = cm
	client.Traces = traces
	qrng := rand.New(rand.NewSource(cfg.seed))
	for q := 0; q < 8; q++ {
		p := demoPoint(qrng, ds.Area)
		entry := 0
		if len(addrs) > 1 {
			entry = qrng.Intn(len(addrs))
		}
		res, err := client.QueryFrom(p, entry)
		if err != nil {
			fatal(err)
		}
		if err := stream.VerifyStampedData(res.Data, cfg.capacity, res.Bucket); err != nil {
			fatal(err)
		}
		if len(addrs) == 1 {
			fmt.Printf("query (%5.0f,%5.0f) -> instance %4d   latency %6.0f slots, tuned %2d packets (index %d), dozed %d frames",
				p.X, p.Y, res.Bucket, res.Latency, res.TotalTuning(), res.TuneIndex, res.DozedFrames)
		} else {
			fmt.Printf("query (%5.0f,%5.0f) entry ch%d -> shard %d instance %4d   latency %6.0f slots, tuned %2d packets (dir %d, index %d), %d hop(s)",
				p.X, p.Y, entry, res.Shard, res.Global, res.Latency, res.TotalTuning(), res.TuneDirectory, res.TuneIndex, res.Hops)
		}
		printRecovery(res.Recoveries, res.LostSlots, res.CorruptFrames, res.EpochRestarts, res.Generation, live)
	}
}

// demoPoint draws one demo query point uniformly over the area.
func demoPoint(rng *rand.Rand, area geom.Rect) geom.Point {
	return geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
}

// printRecovery ends a demo query line with what the query recovered from
// and, on a live broadcast, the generation that answered it.
func printRecovery(recoveries, lost, corrupt, restarts int, gen uint32, live bool) {
	if recoveries > 0 || lost > 0 || corrupt > 0 {
		fmt.Printf(", recovered %d (lost %d slots, %d corrupt)", recoveries, lost, corrupt)
	}
	if restarts > 0 {
		fmt.Printf(", %d epoch restarts", restarts)
	}
	if live {
		fmt.Printf(" [gen %d]", gen)
	}
	fmt.Println()
}

// shardAddr derives shard ch's listen address from the base address: a
// fixed port becomes port+ch, port 0 stays 0 (the kernel picks).
func shardAddr(base string, ch int) string {
	host, port, err := net.SplitHostPort(base)
	if err != nil {
		return base
	}
	p, err := strconv.Atoi(port)
	if err != nil || p == 0 {
		return base
	}
	return net.JoinHostPort(host, strconv.Itoa(p+ch))
}

// startIngest launches the asynchronous update pipeline in front of the
// swapper and its HTTP admission endpoint, registering the pipeline's
// metrics in the server registry so /metrics shows broadcast and ingest
// behavior in one document.
func startIngest(cfg config, sink ingest.Sink, reg *obs.Registry) (*ingest.Pipeline, net.Listener) {
	policy, err := ingest.ParsePolicy(cfg.ingestPolicy)
	if err != nil {
		fatal(err) // unreachable: validateConfig already parsed it
	}
	pipe := ingest.Start(sink, ingest.Config{
		QueueCap:    cfg.ingestQueue,
		Policy:      policy,
		CutMaxOps:   cfg.cutMaxOps,
		CutInterval: cfg.cutInterval,
		Metrics:     ingest.NewMetricsIn(reg, "ingest_"),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "broadcastd: "+format+"\n", args...)
		},
	})
	ln, err := net.Listen("tcp", cfg.ingestAddr)
	if err != nil {
		fatal(err)
	}
	go func() {
		if err := http.Serve(ln, ingest.NewHandler(pipe)); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "broadcastd: ingest endpoint:", err)
		}
	}()
	fmt.Printf("broadcastd: ingest endpoint on http://%s (POST /ingest; queue %d ops, policy %s, cuts at %d ops or every %v)\n",
		ln.Addr(), cfg.ingestQueue, cfg.ingestPolicy, cfg.cutMaxOps, cfg.cutInterval)
	return pipe, ln
}

// serveDebug starts the HTTP debug endpoint when addr is non-empty.
func serveDebug(addr string, reg *obs.Registry, health func() any, traces *obs.TraceLog) {
	if addr == "" {
		return
	}
	dln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	handler := obs.NewHandler(reg, health, traces)
	go func() {
		if err := http.Serve(dln, handler); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "broadcastd: debug endpoint:", err)
		}
	}()
	fmt.Printf("broadcastd: debug endpoint on http://%s (/metrics /healthz /trace)\n", dln.Addr())
}

// waitForSignal blocks until SIGINT/SIGTERM or the first serve error, then
// drains the ingest pipeline and every server.
func waitForSignal(cfg config, stopChurn chan struct{}, pipe *ingest.Pipeline, ingestLn net.Listener, srvs []*stream.Server, serveErr chan error) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Printf("broadcastd: %v: draining connections (budget %v)\n", sig, cfg.drainTO)
		shutdownAll(cfg, stopChurn, pipe, ingestLn, srvs, serveErr)
		fmt.Println("broadcastd: stopped")
	case err := <-serveErr:
		close(stopChurn)
		if err != nil && !errors.Is(err, stream.ErrServerClosed) {
			fatal(err)
		}
	}
}

// shutdownAll stops churn, drains the ingest pipeline through its final
// generation cuts (admitted operations reach the air before the air goes
// away), then drains every server in parallel within the drain budget.
func shutdownAll(cfg config, stopChurn chan struct{}, pipe *ingest.Pipeline, ingestLn net.Listener, srvs []*stream.Server, serveErr chan error) {
	close(stopChurn)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTO)
	defer cancel()
	if pipe != nil {
		ingestLn.Close() // new batches now land on a dead socket, not the queue
		if err := pipe.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "broadcastd: ingest drain incomplete:", err)
		} else {
			fmt.Println("broadcastd: ingest queue drained")
		}
	}
	done := make(chan error, len(srvs))
	for _, srv := range srvs {
		go func() { done <- srv.Shutdown(ctx) }()
	}
	for range srvs {
		if err := <-done; err != nil {
			fmt.Fprintln(os.Stderr, "broadcastd: drain incomplete:", err)
		}
	}
	for range srvs {
		if err := <-serveErr; err != nil && !errors.Is(err, stream.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "broadcastd: serve:", err)
			os.Exit(1)
		}
	}
}

// runChurn applies a random site batch through the swapper at every tick,
// keeping the live population near n0, until stop closes. Each batch
// republishes only the shards whose clipped content changed.
func runChurn(sw *fabric.Swapper, every time.Duration, opsPerBatch, n0 int, seed int64, stop chan struct{}) {
	rng := rand.New(rand.NewSource(seed))
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		gens, applied, err := sw.Apply(experiment.ChurnBatch(sw.LiveSiteIDs(), rng, opsPerBatch, n0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "broadcastd: churn:", err)
			continue
		}
		if len(gens) == 1 {
			fmt.Printf("broadcastd: generation %d on the air (%d site ops, %d live sites)\n", gens[0], len(applied), sw.Len())
		} else {
			fmt.Printf("broadcastd: shard generations %v on the air (%d site ops, %d live sites)\n", gens, len(applied), sw.Len())
		}
	}
}

// tuneIn returns a channel's StartSlot: every connection tunes in at its own
// random phase of the cycle, drawn from the seeded source all channels share
// under mu. Each channel's first phase is drawn here, in channel order and
// before any channel serves, so the first connection to every channel is
// reproducible from -seed whatever order clients connect in.
func tuneIn(mu *sync.Mutex, rng *rand.Rand, cycle int) func() int {
	next := rng.Intn(cycle)
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		start := next
		next = rng.Intn(cycle)
		return start
	}
}

// fileExists reports whether path names an existing file, deciding between
// the restore and build-then-write paths of -snapshot-dir.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "broadcastd:", err)
	os.Exit(1)
}
