// Command perfbench is the repository's live benchmark. It brings up a
// broadcast on loopback TCP, drives it from outside through the public APIs
// only, checks every answer, and prints every metric by name with its unit.
// The last line of its output is one JSON object: the end-to-end metrics of
// an untraced run (-trace 0) or the per-layer metrics of a traced run
// (-trace 1). Build and run it with perfbench/run.sh from the repository
// root:
//
//	bash perfbench/run.sh --workload churn-query --seed 1 --seconds 20 --trace 0
//
// Workloads: static-query, churn-query, sharded-continuous. The extra
// workload cut-breakdown is a one-off that replays a batch stream through
// the cut stages at 10 000 and 50 000 sites.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/ingest"
	"airindex/internal/stream"
)

const (
	numSites  = 10000 // dataset.LargeUniform(numSites)
	capacity  = 128   // packet capacity, bytes
	setupReps = 3     // set-ups per run; setup_s is their median

	// churnRate is the producers' offered load. The ISSUE's probe measured
	// about 50 moves/s as sustainable at 10 000 sites; on a loaded 2-core box
	// cuts then apply fewer ops per second than arrive, the backlog grows and
	// every figure swings with it. Half that rate keeps the pipeline below
	// saturation (the run record prints applied vs offered ops/s and the
	// backlog at the end of the window).
	churnRate = 25.0

	drainTimeout = 60 * time.Second

	// followBudget bounds how long the sharded workload keeps the receivers
	// of untouched channels reading between steps.
	followBudget = 50 * time.Millisecond

	warmup = 2 * time.Second

	trajectorySteps = 1 << 16
	traceDir        = ".bench_build/traces"
)

// contQuery is the sharded workload's standing query: the k=4 nearest
// sites and a window of about three Voronoi cells a side at 10 000 sites.
var contQuery = stream.ContinuousQuery{WindowW: 300, WindowH: 300, K: 4}

type workload struct {
	name   string
	shards int
	rate   float64 // producer ops/s; 0 runs no producer
	mixed  bool    // adds and removes besides moves
	cont   bool    // a fabric.Continuous client instead of point queries
	// cutEvery is the ingest cut window (0 keeps the pipeline default).
	cutEvery time.Duration
	why      string
}

var workloads = []workload{
	{name: "static-query", shards: 1,
		why: "only the serving layers work (transmit, doze, decode, schedule); cut optimisations should not move it"},
	{name: "churn-query", shards: 1, rate: churnRate,
		why: "the cut pipeline does most of the CPU work beside reads, so freshness, epoch restarts and contention show"},
	// A fabric cut rebuilds every changed shard's adjacency table whatever
	// the batch size, and rebuilds the shards in parallel on both cores, so
	// this workload batches a second of ops per cut instead of the default
	// 200 ms: cuts then leave the moving client most of the CPU.
	{name: "sharded-continuous", shards: 2, rate: churnRate, mixed: true, cont: true, cutEvery: time.Second,
		why: "per-shard cuts, adjacency rebuilds and site-count changes beside directory and appendix revalidation"},
}

func main() {
	wlName := flag.String("workload", "", "static-query, churn-query, sharded-continuous, or the cut-breakdown one-off")
	seed := flag.Int64("seed", 1, "seed of every input the run draws")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	traced := *traceFlag == 1

	var res *result
	var err error
	if *wlName == breakdownName {
		res, err = runBreakdown(*seed)
		traced = true
	} else {
		w, ok := lookup(*wlName)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
			os.Exit(2)
		}
		res, err = runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), traced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// namedMetric is one reported metric.
type namedMetric struct {
	Name  string
	Value float64
	Unit  string
}

// result is one run's output: the run record and notes, the metrics, and
// the verdict the final JSON line carries.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	lines     []string
	e2e       []namedMetric
	layer     []namedMetric
}

func (r *result) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) wrong(format string, args ...any) {
	r.correct = false
	r.line("wrong: "+format, args...)
}

// print writes the run record, every metric by name with its unit, and the
// final JSON line: the end-to-end metrics, or the per-layer ones when traced.
func (r *result) print(w io.Writer, traced bool) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, m := range r.e2e {
		fmt.Fprintf(w, "end_to_end %-36s %16.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.layer {
		fmt.Fprintf(w, "per_layer  %-36s %16.4f %s\n", m.Name, m.Value, m.Unit)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sel := r.e2e
	if traced {
		sel = r.layer
	}
	ms := make(map[string]metric, len(sel))
	for _, m := range sel {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		ms[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// sample is one answered query (or continuous step).
type sample struct {
	at     time.Time
	dur    time.Duration
	traced bool
	res    stream.Result
}

type chanGen struct {
	ch  int
	gen uint32
}

// window is what the closed-loop client did during the measured window.
type window struct {
	attempted, failed int
	firstFail         error
	samples           []sample
	wrong             []string

	points []pointAnswer
	steps  []stepAnswer

	// Continuous-session bookkeeping.
	revalidated, crossed, refreshed int
	touched                         int       // channels touched, summed over steps
	reacquired                      []chanGen // channel legs that re-acquired an appendix
	following                       time.Duration
}

func (w *window) wrongf(format string, args ...any) {
	if len(w.wrong) < 20 {
		w.wrong = append(w.wrong, fmt.Sprintf(format, args...))
	} else if len(w.wrong) == 20 {
		w.wrong = append(w.wrong, "further wrong answers omitted")
	}
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstFail == nil {
		w.firstFail = err
	}
}

// setUp builds the broadcast setupReps times and keeps the last one up.
func setUp(ds dataset.Dataset, shards int) (*air, []float64, error) {
	var a *air
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if a != nil {
			if err := a.close(); err != nil {
				return nil, nil, err
			}
			a = nil
		}
		runtime.GC()
		na, d, err := startAir(ds, shards, capacity)
		if err != nil {
			return nil, nil, err
		}
		a = na
		secs = append(secs, d.Seconds())
	}
	return a, secs, nil
}

func runWorkload(w workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	res := &result{correct: true}
	res.line("record: workload %s (%s)", w.name, w.why)
	res.line("record: seed %d, %v measured, traced %v, LargeUniform(%d), %d-byte packets, %d channel(s)", seed, dur, traced, numSites, capacity, w.shards)
	res.line("record: %s %s/%s, nproc %d, GOMAXPROCS %d; traffic crosses loopback TCP (127.0.0.1), one process, %d client connection(s)",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), w.shards)
	res.line("record: the box is small and shared with other work; compare medians of several runs, not single runs")

	ds := dataset.LargeUniform(numSites)
	a, setups, err := setUp(ds, w.shards)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer a.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMiB := float64(mem.HeapAlloc) / (1 << 20)

	tr := &tracer{}
	var sink *recSink
	var pipe *ingest.Pipeline
	if w.rate > 0 {
		var inner ingest.Sink
		if a.single != nil {
			inner = ingest.SwapperSink(a.single)
		} else {
			inner = ingest.FabricSink(a.fab)
		}
		sink = &recSink{inner: inner, a: a, tr: tr}
		pipe = ingest.Start(sink, ingest.Config{CutInterval: w.cutEvery})
		defer func() {
			// A no-op after the drain below; on an early return it stops the
			// cut worker before the servers close.
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			pipe.Close(ctx) //nolint:errcheck
		}()
	}

	// The load starts warmup before the measured window, so the window sees
	// warm caches and, on the churn workloads, cuts already flowing.
	frames0, bytes0, evict0 := a.serverTotals()
	rframes0, rbytes0 := a.receiverTotals()
	begin := time.Now()
	start := begin.Add(warmup)
	stop := start.Add(dur)
	half := start.Add(dur / 2)
	var offered []offeredOp
	prodDone := make(chan struct{})
	if pipe != nil {
		prod := newProducer(seed*2+1, ds.Area, ds.N(), w.mixed)
		go func() {
			defer close(prodDone)
			offered = prod.run(pipe, w.rate, begin, stop, tr)
		}()
	} else {
		close(prodDone)
	}
	win := &window{}
	if w.cont {
		err = win.runContinuous(a, ds, seed*2, stop, half, tr, traced)
	} else {
		err = win.runPoints(a, ds.Area, rand.New(rand.NewSource(seed*2)), stop, half, tr, traced)
	}
	elapsed, ran := time.Since(start), time.Since(begin)
	frames1, bytes1, evict1 := a.serverTotals()
	rframes1, rbytes1 := a.receiverTotals()
	<-prodDone
	if err != nil {
		return nil, err
	}
	backlog := 0
	if pipe != nil {
		backlog = pipe.Depth()
	}

	// Drain: every admitted op reaches a cut, and every cut reaches a
	// receiver, before the books are balanced.
	var recs []batchRec
	if pipe != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		err := pipe.Close(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("ingest drain: %w", err)
		}
		if err := a.awaitGens(a.gens(), drainTimeout); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
		recs = sink.batches()
	}

	// Verify every answer against the ground truth of its generation.
	if a.single != nil {
		for _, pa := range win.points {
			if err := verifyPoint(a.single, pa); err != nil {
				win.wrongf("%v", err)
			}
		}
		if traced {
			win.decodePoints(a.single, tr)
		}
	} else {
		rects := make([]geom.Rect, a.fab.Shards())
		for ch := range rects {
			rects[ch] = a.fab.Current(ch).Shard.Rect
		}
		for i, s := range win.steps {
			if err := verifyCachedBuckets(a.fab, s, capacity); err != nil {
				win.wrongf("step %d: %v", i, err)
			}
			if err := verifyStep(a.fab, contQuery, rects, s); err != nil {
				win.wrongf("step %d: %v", i, err)
			}
		}
	}
	for _, s := range win.wrong {
		res.wrong("%s", s)
	}
	if w.cont {
		res.line("run: between steps, %.3f s went to keeping the receivers of untouched channels tuned", win.following.Seconds())
	}
	if win.firstFail != nil {
		res.line("note: %d of %d queries failed; first: %v", win.failed, win.attempted, win.firstFail)
	}

	// End-to-end metrics.
	samples := measured(win.samples, start)
	var durUS, tuning, slots []float64
	for _, s := range samples {
		durUS = append(durUS, us(s.dur))
		tuning = append(tuning, float64(s.res.TotalTuning()))
		slots = append(slots, s.res.Latency)
	}
	res.e2e = []namedMetric{
		{"setup_s", median(setups), "s"},
		{"heap_mib", heapMiB, "MiB"},
		{"query_p50_us", median(durUS), "us"},
		{"query_p99_us", quantile(append([]float64(nil), durUS...), 0.99), "us"},
		{"queries_per_s", float64(len(samples)) / elapsed.Seconds(), "answers/s"},
		{"tuning_pkts_mean", mean(tuning), "pkts"},
		{"latency_slots_mean", mean(slots), "slots"},
	}
	res.attempted = int64(win.attempted)
	res.failed = int64(win.failed)

	// Ops: balance the books and measure freshness.
	ops := opsReport{}
	if pipe != nil {
		ops = balanceOps(res, a, pipe.Metrics(), offered, recs)
		res.attempted += int64(len(offered))
		res.failed += ops.failed
	}
	res.line("run: %d queries attempted, %d failed (query_fail_ratio %.6f)", win.attempted, win.failed, ratio(float64(win.failed), float64(win.attempted)))
	res.line("run: receivers read %d frames (%.0f frames/s) and %d bytes over loopback; servers wrote %d frames",
		rframes1-rframes0, float64(rframes1-rframes0)/ran.Seconds(), rbytes1-rbytes0, frames1-frames0)
	if pipe != nil {
		res.line("run: %d ops offered = %d applied + %d folded + %d cancelled (add+remove annihilated) + %d failed (op_fail_ratio %.6f)",
			len(offered), ops.fate.applied, ops.fate.folded, ops.fate.cancelled, ops.failed, ratio(float64(ops.failed), float64(len(offered))))
		res.line("run: freshness_p50_ms %.3f, freshness_p99_ms %.3f over %d ops (scheduled send -> first frame of the carrying generation at the receiver)",
			median(ops.freshness), quantile(append([]float64(nil), ops.freshness...), 0.99), len(ops.freshness))
		applied := 0
		for _, rec := range recs {
			if rec.end.Before(stop) {
				applied += len(rec.ids)
			}
		}
		res.line("run: cuts applied %.1f ops/s while %.1f ops/s were offered; %d ops still queued at the end of the window",
			float64(applied)/ran.Seconds(), w.rate, backlog)
		res.line("run: open-loop producer ran late by p50 %.3f ms, p99 %.3f ms, max %.3f ms (Enqueue call - scheduled send)",
			median(ops.lagMS), quantile(append([]float64(nil), ops.lagMS...), 0.99), quantile(append([]float64(nil), ops.lagMS...), 1))
	} else {
		res.line("run: no producer; freshness and op_fail_ratio do not apply to %s", w.name)
	}

	if !traced {
		return res, nil
	}

	// Per-layer metrics of the traced run.
	res.layer = append(res.layer, ingestMetrics(pipe, ops, tr, recs)...)
	res.layer = append(res.layer, swapperMetrics(a, recs, stop, ran)...)
	var cuts []cutStages
	var applies []time.Duration
	var setup setupStages
	if w.shards == 1 && pipe != nil {
		cuts, applies, setup, err = replayBatches(ds, a.single, recs, tr)
		if err != nil {
			res.wrong("%v", err)
		} else {
			res.line("run: %d replayed cuts, every one byte-identical to its published generation's index packets", len(cuts))
		}
	} else {
		if _, setup, err = newReplayer(ds, capacity, tr); err != nil {
			return nil, fmt.Errorf("set-up stages: %w", err)
		}
		res.line("note: cut-stage metrics are replayed on churn-query only; they read 0 on %s", w.name)
	}
	res.layer = append(res.layer, cutStageMetrics("", cuts, applies)...)
	var fabricS float64
	if w.shards > 1 {
		t := time.Now()
		if _, err := fabric.NewSwapper(ds.Area, ds.Sites, w.shards, capacity, fabric.Options{Adjacency: true}); err != nil {
			return nil, fmt.Errorf("set-up stages: %w", err)
		}
		tr.record("setup.fabric", t, time.Since(t))
		fabricS = time.Since(t).Seconds()
	}
	res.layer = append(res.layer,
		namedMetric{"setup.maintainer_s", setup.maintainer.Seconds(), "s"},
		namedMetric{"setup.patch_s", setup.patch.Seconds(), "s"},
		namedMetric{"setup.dtree_s", setup.dtree.Seconds(), "s"},
		namedMetric{"setup.page_flatten_s", setup.pageFlatten.Seconds(), "s"},
		namedMetric{"setup.render_s", setup.render.Seconds(), "s"},
		namedMetric{"setup.fabric_s", fabricS, "s"},
	)
	res.layer = append(res.layer, namedMetric{"air.publish_to_frame_ms_p50", median(ops.publishMS), "ms"},
		namedMetric{"air.publish_to_frame_ms_p99", quantile(append([]float64(nil), ops.publishMS...), 0.99), "ms"})
	res.layer = append(res.layer,
		namedMetric{"stream.frames_per_s", float64(frames1-frames0) / ran.Seconds(), "frames/s"},
		namedMetric{"stream.bytes_per_query", ratio(float64(bytes1-bytes0), float64(len(win.samples))), "B"},
		namedMetric{"stream.evictions", float64(evict1 - evict0), "count"},
	)
	res.layer = append(res.layer, clientMetrics(samples, tr)...)
	if w.cont {
		res.line("note: client.decode_us_p50 reads 0 on %s: its index copies carry a directory and appendix prefix that core.ClientLocate does not decode", w.name)
	}
	res.layer = append(res.layer, contMetrics(a, win)...)
	res.layer = append(res.layer,
		namedMetric{"freshness_p50_ms", median(ops.freshness), "ms"},
		namedMetric{"freshness_p99_ms", quantile(append([]float64(nil), ops.freshness...), 0.99), "ms"},
	)
	res.layer = append(res.layer, overheadMetrics(samples)...)

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.line("run: spans written to %s", path)
	return res, nil
}

func randomPoint(rng *rand.Rand, area geom.Rect) geom.Point {
	return geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
}

// runPoints is the closed-loop point-query client on channel 0. In a traced
// run the tracer switches on at the window's midpoint, so the first half
// measures the untraced baseline of the same run.
func (w *window) runPoints(a *air, area geom.Rect, rng *rand.Rand, stop, half time.Time, tr *tracer, traced bool) error {
	c := a.clients[0]
	for {
		now := time.Now()
		if !now.Before(stop) {
			return nil
		}
		if traced && !tr.enabled() && !now.Before(half) {
			tr.on.Store(true)
		}
		p := randomPoint(rng, area)
		t0 := time.Now()
		res, err := c.Query(p)
		d := time.Since(t0)
		w.attempted++
		if err != nil {
			w.fail(err)
			continue
		}
		tr.record("client.query", t0, d)
		w.samples = append(w.samples, sample{at: t0, dur: d, traced: tr.enabled(), res: res})
		if err := stream.VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
			w.wrongf("point %v: %v", p, err)
		}
		w.points = append(w.points, pointAnswer{p: p, bucket: res.Bucket, gen: res.Generation})
	}
}

// decodePoints times core.ClientLocate on the packets of the generation
// each traced answer was resolved under, for the same point, and checks it
// names the bucket the stream answered. It runs after the window: looking a
// generation up takes the swapper's lock, which a cut holds for its whole
// duration.
func (w *window) decodePoints(sw *stream.Swapper, tr *tracer) {
	for i, pa := range w.points {
		if !w.samples[i].traced {
			continue
		}
		g := sw.Generation(pa.gen)
		if g == nil {
			continue // verifyPoint reports it
		}
		t := time.Now()
		b, _, err := core.ClientLocate(g.Prog.IndexPackets, capacity, pa.p)
		tr.record("client.decode", t, time.Since(t))
		if err != nil || b != pa.bucket {
			w.wrongf("point %v: decode of generation %d gives bucket %d (%v), the stream gave %d", pa.p, pa.gen, b, err, pa.bucket)
		}
	}
}

// runContinuous is the closed-loop moving client: one fabric.Continuous
// step per answer along a seeded random-waypoint trajectory. Between steps
// the receivers of channels the step did not touch keep reading (see
// air.follow); that time is not part of any step.
func (w *window) runContinuous(a *air, ds dataset.Dataset, seed int64, stop, half time.Time, tr *tracer, traced bool) error {
	fc := fabric.NewClientFunc(len(a.clients), capacity, func(ch int) (*stream.Client, error) { return a.clients[ch], nil })
	fc.Adjacency = true
	sess := fabric.NewContinuous(fc, stream.ModeIncremental, contQuery)
	// One expected cell diameter per step, at a constant speed: a random
	// per-leg speed would make the mix of revalidated, re-descended and
	// refreshed steps (and with it tuning and latency) swing from seed to seed.
	cell := ds.Area.W() / math.Sqrt(float64(ds.N()))
	traj := dataset.RandomWaypoint(ds.Area, trajectorySteps, seed, cell, cell)
	last := make([]uint32, len(a.clients))
	for step := 0; ; step++ {
		now := time.Now()
		if !now.Before(stop) {
			return nil
		}
		if traced && !tr.enabled() && !now.Before(half) {
			tr.on.Store(true)
		}
		p := traj.At(step)
		t0 := time.Now()
		out, err := sess.Step(p)
		d := time.Since(t0)
		w.attempted++
		if err != nil {
			w.fail(err)
			continue
		}
		tr.record("cont.step", t0, d)
		w.samples = append(w.samples, sample{at: t0, dur: d, traced: tr.enabled(), res: out.Res})
		w.steps = append(w.steps, newStepAnswer(p, sess, out))
		w.touched += len(out.Gens)
		switch {
		case out.Revalidated:
			w.revalidated++
		case out.Crossed:
			w.crossed++
		case out.Refreshed:
			w.refreshed++
		}
		for ch, g := range out.Gens {
			if last[ch] != g {
				w.reacquired = append(w.reacquired, chanGen{ch, g})
				last[ch] = g
			}
		}
		t2 := time.Now()
		deadline := t2.Add(followBudget)
		for ch := range a.clients {
			if _, ok := out.Gens[ch]; ok {
				continue
			}
			if _, err := a.follow(ch, a.srvs[ch].Generation(), deadline); err != nil {
				return err
			}
		}
		w.following += time.Since(t2)
	}
}

// opsReport is the producer side of a run after the drain.
type opsReport struct {
	fate      opFate
	failed    int64
	freshness []float64 // ms, per op that reached air
	publishMS []float64 // ms, ApplyBatch return -> first frame at a receiver, per cut
	lagMS     []float64 // ms, how late each Enqueue call started
	waitMS    []float64 // ms, scheduled send -> start of the carrying ApplyBatch
}

// firstArrival is when a receiver first read a frame of a generation the
// batch put on air: the earliest over the channels the batch advanced.
func (a *air) firstArrival(rec batchRec) (time.Time, bool) {
	var first time.Time
	found := false
	for ch := range rec.after {
		if rec.after[ch] <= rec.before[ch] {
			continue
		}
		if at, ok := a.taps[ch].firstAtLeast(rec.after[ch]); ok && (!found || at.Before(first)) {
			first, found = at, true
		}
	}
	return first, found
}

// balanceOps ties every offered op to its fate, checks that offered equals
// applied + folded + failed exactly, and measures freshness.
func balanceOps(res *result, a *air, m *ingest.Metrics, offered []offeredOp, recs []batchRec) opsReport {
	var r opsReport
	fate, err := matchOps(offered, recs)
	if err != nil {
		res.wrong("op matching: %v", err)
	}
	r.fate = fate
	shed := 0
	for _, o := range offered {
		r.lagMS = append(r.lagMS, ms(o.start.Sub(o.due)))
		if o.shed {
			shed++
		}
	}
	dropped := m.RejectedOps.Load() + m.InvalidOps.Load() + m.QuarantinedOps.Load()
	r.failed = m.ShedOps.Load() + dropped
	if int64(shed) != m.ShedOps.Load() {
		res.wrong("producer saw %d ops shed, ingest counted %d", shed, m.ShedOps.Load())
	}
	if int64(fate.lost) != dropped {
		res.wrong("%d admitted ops never reached air, ingest counted %d rejected + invalid + quarantined", fate.lost, dropped)
	}
	if int64(fate.applied+fate.folded+fate.cancelled)+r.failed != int64(len(offered)) {
		res.wrong("ops do not balance: %d offered != %d applied + %d folded + %d cancelled + %d failed",
			len(offered), fate.applied, fate.folded, fate.cancelled, r.failed)
	}
	applied := 0
	for _, rec := range recs {
		applied += len(rec.ids)
	}
	if applied != fate.applied {
		res.wrong("batches applied %d ops, %d matched", applied, fate.applied)
	}
	for i, o := range offered {
		b := fate.batch[i]
		if b < 0 {
			continue
		}
		r.waitMS = append(r.waitMS, ms(recs[b].start.Sub(o.due)))
		if !recs[b].advanced() {
			continue // a byte-level no-op: the air already carried it
		}
		at, ok := a.firstArrival(recs[b])
		if !ok {
			res.wrong("op %d: carrying batch %d never reached a receiver", i, b)
			continue
		}
		r.freshness = append(r.freshness, ms(at.Sub(o.due)))
	}
	for _, rec := range recs {
		if !rec.advanced() {
			continue
		}
		if at, ok := a.firstArrival(rec); ok {
			r.publishMS = append(r.publishMS, ms(at.Sub(rec.end)))
		}
	}
	return r
}

func ingestMetrics(pipe *ingest.Pipeline, ops opsReport, tr *tracer, recs []batchRec) []namedMetric {
	var coalesce, opLat, perCut float64
	if pipe != nil {
		m := pipe.Metrics()
		coalesce = ratio(float64(m.CoalescedOut.Load()), float64(m.CoalescedIn.Load()))
		opLat = float64(m.OpLatencyNS.Snapshot().P50) / 1e6
		var n []float64
		for _, rec := range recs {
			n = append(n, float64(len(rec.ids)))
		}
		perCut = mean(n)
	}
	return []namedMetric{
		{"ingest.enqueue_us_p99", quantile(usOf(tr.durations("ingest.enqueue")), 0.99), "us"},
		{"ingest.generator_lag_ms_p99", quantile(append([]float64(nil), ops.lagMS...), 0.99), "ms"},
		{"ingest.queue_wait_ms_p50", median(ops.waitMS), "ms"},
		{"ingest.queue_wait_ms_p99", quantile(append([]float64(nil), ops.waitMS...), 0.99), "ms"},
		{"ingest.coalesce_ratio", coalesce, "ratio"},
		{"ingest.ops_per_cut_mean", perCut, "ops"},
		{"ingest.op_latency_ms_p50", opLat, "ms"},
	}
}

func swapperMetrics(a *air, recs []batchRec, stop time.Time, ran time.Duration) []namedMetric {
	var apply, permille []float64
	cuts, full := 0, 0
	for _, rec := range recs {
		apply = append(apply, ms(rec.end.Sub(rec.start)))
		if rec.advanced() && rec.start.Before(stop) {
			cuts++
		}
		for _, pm := range rec.permille {
			permille = append(permille, float64(pm))
			if pm >= 1000 {
				full++
			}
		}
	}
	var build []float64
	for _, s := range a.srvs {
		if h := s.Metrics().CutBuildNS.Snapshot(); h.Count > 0 {
			build = append(build, float64(h.P50)/1e6)
		}
	}
	return []namedMetric{
		{"swapper.apply_ms_p50", median(apply), "ms"},
		{"swapper.apply_ms_p99", quantile(append([]float64(nil), apply...), 0.99), "ms"},
		{"swapper.cuts_per_s", float64(cuts) / ran.Seconds(), "cuts/s"},
		{"swapper.full_rebuild_share", ratio(float64(full), float64(len(permille))), "ratio"},
		{"stream.cut_build_ms_p50", mean(build), "ms"},
		{"stream.cut_dirty_permille_mean", mean(permille), "permille"},
	}
}

func clientMetrics(samples []sample, tr *tracer) []namedMetric {
	var probe, index, data, recov, dozed, restarts []float64
	for _, s := range samples {
		probe = append(probe, float64(s.res.TuneProbe))
		index = append(index, float64(s.res.TuneIndex))
		data = append(data, float64(s.res.TuneData))
		recov = append(recov, float64(s.res.TuneRecover))
		dozed = append(dozed, float64(s.res.DozedFrames))
		restarts = append(restarts, float64(s.res.EpochRestarts))
	}
	return []namedMetric{
		{"client.tune_probe_mean", mean(probe), "pkts"},
		{"client.tune_index_mean", mean(index), "pkts"},
		{"client.tune_data_mean", mean(data), "pkts"},
		{"client.tune_recover_mean", mean(recov), "pkts"},
		{"client.dozed_frames_mean", mean(dozed), "frames"},
		{"client.epoch_restarts_per_query", mean(restarts), "ratio"},
		{"client.decode_us_p50", median(usOf(tr.durations("client.decode"))), "us"},
	}
}

// contMetrics classifies the continuous steps and measures the appendix a
// channel re-acquires: the packet count of the adjacency appendix of every
// generation a step newly pinned on a channel.
func contMetrics(a *air, win *window) []namedMetric {
	steps := float64(len(win.steps))
	var appendix []float64
	if a.fab != nil {
		cache := make(map[chanGen]int)
		for _, cg := range win.reacquired {
			n, ok := cache[cg]
			if !ok {
				if g := a.fab.Generation(cg.ch, cg.gen); g != nil {
					if adj := g.Shard.Flat.Flat.Adjacency(); adj != nil {
						if pkts, err := adj.EncodePackets(capacity); err == nil {
							n = len(pkts)
						}
					}
				}
				cache[cg] = n
			}
			appendix = append(appendix, float64(n))
		}
	}
	return []namedMetric{
		{"cont.revalidation_share", ratio(float64(win.revalidated), steps), "ratio"},
		{"cont.redescent_share", ratio(float64(win.crossed), steps), "ratio"},
		{"cont.refresh_share", ratio(float64(win.refreshed), steps), "ratio"},
		{"cont.channels_per_step", ratio(float64(win.touched), steps), "channels"},
		{"cont.appendix_pkts_per_refresh", mean(appendix), "pkts"},
	}
}

// overheadMetrics compares the traced second half of the window with the
// untraced first half of the same run.
func overheadMetrics(samples []sample) []namedMetric {
	var plain, traced []float64
	for _, s := range samples {
		if s.traced {
			traced = append(traced, us(s.dur))
		} else {
			plain = append(plain, us(s.dur))
		}
	}
	p50, t50 := median(plain), median(traced)
	return []namedMetric{
		{"trace.query_p50_untraced_us", p50, "us"},
		{"trace.query_p50_overhead_us", t50 - p50, "us"},
	}
}

// measured drops the warm-up samples.
func measured(ss []sample, start time.Time) []sample {
	out := ss[:0:0]
	for _, s := range ss {
		if !s.at.Before(start) {
			out = append(out, s)
		}
	}
	return out
}
