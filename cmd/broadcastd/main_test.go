package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDebugEndpointEndToEnd builds the real broadcastd binary, runs it in
// demo mode with -debug-addr, and exercises the three debug endpoints
// against the live process: /healthz while the broadcast is on the air,
// /metrics after frames have been transmitted, and /trace after the demo
// client has completed queries. This is the end-to-end proof that the
// observability layer is reachable from outside the process.
func TestDebugEndpointEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "broadcastd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Pace slots at 2ms so the demo stays alive long enough to be probed.
	cmd := exec.Command(bin,
		"-demo", "-dataset", "uniform", "-n", "40", "-capacity", "128",
		"-slot-duration", "2ms", "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// done is closed (not sent to) once the daemon exits, so every select
	// below and the cleanup defer can all wait on it.
	var waitErr error
	done := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(done) }()
	defer func() {
		cmd.Process.Kill() //nolint:errcheck
		<-done
	}()

	// Scan the daemon's output for the debug address and the first
	// completed demo query; keep draining afterwards so the child never
	// blocks on a full pipe.
	debugURL := make(chan string, 1)
	queryDone := make(chan struct{})
	var mu sync.Mutex
	var tailBuf strings.Builder
	tail := func() string { mu.Lock(); defer mu.Unlock(); return tailBuf.String() }
	go func() {
		sc := bufio.NewScanner(stdout)
		sawQuery := false
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			tailBuf.WriteString(line + "\n")
			mu.Unlock()
			if _, rest, ok := strings.Cut(line, "debug endpoint on http://"); ok {
				debugURL <- "http://" + strings.Fields(rest)[0]
			}
			if !sawQuery && strings.HasPrefix(line, "query (") {
				sawQuery = true
				close(queryDone)
			}
		}
	}()

	var base string
	select {
	case base = <-debugURL:
	case <-done:
		t.Fatalf("daemon exited before announcing the debug endpoint: %v\n%s", waitErr, tail())
	case <-time.After(30 * time.Second):
		t.Fatalf("no debug endpoint announced\n%s", tail())
	}

	// /healthz: the broadcast clock is live and generation 1 is on the air.
	var health struct {
		Generation  uint32  `json:"generation"`
		CycleLen    int     `json:"cycle_len"`
		Progress    float64 `json:"cycle_progress"`
		ConnsActive int64   `json:"conns_active"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Generation != 1 || health.CycleLen <= 0 {
		t.Fatalf("healthz = %+v", health)
	}
	if health.Progress < 0 || health.Progress >= 1 {
		t.Fatalf("healthz cycle_progress = %v, want [0, 1)", health.Progress)
	}

	// /trace after the demo client finishes its first query.
	select {
	case <-queryDone:
	case <-done:
		t.Fatalf("daemon exited before completing a demo query: %v\n%s", waitErr, tail())
	case <-time.After(60 * time.Second):
		t.Fatalf("no demo query completed\n%s", tail())
	}
	var trace struct {
		Total  uint64 `json:"total"`
		Traces []struct {
			Bucket int `json:"bucket"`
			Steps  []struct {
				Kind string `json:"kind"`
				Slot int    `json:"slot"`
			} `json:"steps"`
		} `json:"traces"`
	}
	getJSON(t, base+"/trace", &trace)
	if trace.Total == 0 || len(trace.Traces) == 0 {
		t.Fatalf("trace endpoint empty after a completed query: %+v", trace)
	}
	if steps := trace.Traces[0].Steps; len(steps) == 0 || steps[0].Kind != "probe" {
		t.Fatalf("trace steps = %+v, want a probe-first sequence", steps)
	}

	// /metrics: frames have gone out to the demo client.
	var metrics map[string]any
	getJSON(t, base+"/metrics", &metrics)
	for _, key := range []string{"frames_written", "bytes_written", "conns_total", "swap_latency_ns"} {
		if _, ok := metrics[key]; !ok {
			t.Fatalf("metrics payload missing %q: %v", key, metrics)
		}
	}
	if fw, _ := metrics["frames_written"].(float64); fw <= 0 {
		t.Fatalf("frames_written = %v, want > 0", metrics["frames_written"])
	}

	// The daemon must then finish its demo run cleanly on its own.
	select {
	case <-done:
		if waitErr != nil {
			t.Fatalf("daemon exited with %v\n%s", waitErr, tail())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("daemon did not finish the demo run\n%s", tail())
	}
	if !strings.Contains(tail(), "demo: 8 queries") {
		t.Fatalf("demo summary missing from output\n%s", tail())
	}
}

// baseConfig mirrors the flag defaults.
func baseConfig() config {
	return config{
		addr: "127.0.0.1:7343", dataset: "hospital", n: 1000, capacity: 256,
		shards: 1, seed: 1, burst: 1, churnOps: 4,
		writeTO: 30 * time.Second, drainTO: 10 * time.Second,
		ingestQueue: 4096, ingestPolicy: "reject",
		cutMaxOps: 256, cutInterval: 200 * time.Millisecond,
	}
}

// TestValidateConfig pins the flag-validation rules: every nonsensical
// combination is rejected before a listener opens, and the defaults pass.
func TestValidateConfig(t *testing.T) {
	if err := validateConfig(baseConfig()); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*config)
		ok   bool
	}{
		{"sharded", func(c *config) { c.shards = 4 }, true},
		{"churn with seed", func(c *config) { c.churn = time.Second; c.seedSet = true }, true},
		{"lossy", func(c *config) { c.loss = 0.2; c.burst = 3; c.corrupt = 0.01 }, true},
		{"snapshot dir sharded", func(c *config) { c.snapDir = "snaps"; c.shards = 3 }, true},
		{"snapshot dir single channel", func(c *config) { c.snapDir = "snaps" }, true},
		{"snapshot dir with churn", func(c *config) { c.snapDir = "snaps"; c.shards = 3; c.churn = time.Second; c.seedSet = true }, false},
		{"zero shards", func(c *config) { c.shards = 0 }, false},
		{"negative shards", func(c *config) { c.shards = -2 }, false},
		{"churn without seed", func(c *config) { c.churn = time.Second }, false},
		{"negative churn", func(c *config) { c.churn = -time.Second; c.seedSet = true }, false},
		{"loss one", func(c *config) { c.loss = 1 }, false},
		{"negative loss", func(c *config) { c.loss = -0.1 }, false},
		{"corrupt one", func(c *config) { c.corrupt = 1 }, false},
		{"sub-frame burst", func(c *config) { c.burst = 0.5 }, false},
		{"zero churn ops", func(c *config) { c.churnOps = 0 }, false},
		{"tiny capacity", func(c *config) { c.capacity = 16 }, false},
		{"no sites", func(c *config) { c.n = 0 }, false},
		{"unknown dataset", func(c *config) { c.dataset = "venus" }, false},
		{"negative slot duration", func(c *config) { c.slotDur = -time.Millisecond }, false},
		{"negative write timeout", func(c *config) { c.writeTO = -time.Second }, false},
		{"zero drain budget", func(c *config) { c.drainTO = 0 }, false},
		{"ingest", func(c *config) { c.ingestAddr = "127.0.0.1:0"; c.seedSet = true }, true},
		{"ingest sharded", func(c *config) { c.ingestAddr = "127.0.0.1:0"; c.seedSet = true; c.shards = 3 }, true},
		{"ingest tuned", func(c *config) {
			c.ingestAddr = "127.0.0.1:0"
			c.seedSet = true
			c.ingestPolicy = "drop-move"
			c.ingestTuned = []string{"ingest-policy"}
		}, true},
		{"ingest with snapshot dir", func(c *config) {
			c.ingestAddr = "127.0.0.1:0"
			c.seedSet = true
			c.shards = 3
			c.snapDir = "snaps"
		}, false},
		{"ingest without seed", func(c *config) { c.ingestAddr = "127.0.0.1:0" }, false},
		{"ingest tuning without endpoint", func(c *config) { c.ingestTuned = []string{"cut-interval"}; c.seedSet = true }, false},
		{"zero ingest queue", func(c *config) { c.ingestAddr = "127.0.0.1:0"; c.seedSet = true; c.ingestQueue = 0 }, false},
		{"zero cut max ops", func(c *config) { c.ingestAddr = "127.0.0.1:0"; c.seedSet = true; c.cutMaxOps = 0 }, false},
		{"zero cut interval", func(c *config) { c.ingestAddr = "127.0.0.1:0"; c.seedSet = true; c.cutInterval = 0 }, false},
		{"unknown ingest policy", func(c *config) { c.ingestAddr = "127.0.0.1:0"; c.seedSet = true; c.ingestPolicy = "yolo" }, false},
		{"adjacency", func(c *config) { c.adjacency = true }, true},
		{"adjacency with churn", func(c *config) { c.adjacency = true; c.churn = time.Second; c.seedSet = true }, true},
		{"adjacency sharded", func(c *config) { c.adjacency = true; c.shards = 3 }, true},
		{"adjacency with snapshot dir", func(c *config) { c.adjacency = true; c.snapDir = "snaps"; c.shards = 3 }, true},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mut(&cfg)
		err := validateConfig(cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpectedly rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestShardAddr pins the port-derivation rule for sharded listeners.
func TestShardAddr(t *testing.T) {
	for _, tc := range []struct {
		base string
		ch   int
		want string
	}{
		{"127.0.0.1:7343", 0, "127.0.0.1:7343"},
		{"127.0.0.1:7343", 3, "127.0.0.1:7346"},
		{"127.0.0.1:0", 2, "127.0.0.1:0"},
		{":9000", 1, ":9001"},
	} {
		if got := shardAddr(tc.base, tc.ch); got != tc.want {
			t.Errorf("shardAddr(%q, %d) = %q, want %q", tc.base, tc.ch, got, tc.want)
		}
	}
}

// TestInvalidFlagsExitCode runs the real binary with a rejected flag
// combination and expects a usage error (exit code 2) before any listener
// opens.
func TestInvalidFlagsExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	out, err := exec.Command(bin, "-churn", "1s", "-addr", "127.0.0.1:0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit code 2, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "invalid flags") || !strings.Contains(string(out), "-seed") {
		t.Fatalf("usage error missing:\n%s", out)
	}
}

// TestShardedDemoEndToEnd runs the daemon in -shards 3 -demo mode against
// a lossy channel and checks the demo client resolved queries across
// shards with the directory prefix charged on every query.
func TestShardedDemoEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	out, err := exec.Command(bin,
		"-demo", "-shards", "3", "-dataset", "uniform", "-n", "90", "-capacity", "128",
		"-loss", "0.02", "-addr", "127.0.0.1:0").CombinedOutput()
	if err != nil {
		t.Fatalf("daemon: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"3 shards", "directory 1 packet(s)",
		"shard 0 on", "shard 1 on", "shard 2 on",
		"demo: 8 queries",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "hop(s)") {
		t.Fatalf("no hop accounting in demo output:\n%s", s)
	}
}

// TestAdjacencyDemoEndToEnd runs the daemon with -adjacency in both the
// single-channel and sharded shapes: the appendix must be announced on the
// air and the demo point queries must still resolve — the one-shot path
// skips the appendix via the length named in packet 0.
func TestAdjacencyDemoEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	out, err := exec.Command(bin,
		"-demo", "-adjacency", "-dataset", "uniform", "-n", "120", "-capacity", "128",
		"-addr", "127.0.0.1:0").CombinedOutput()
	if err != nil {
		t.Fatalf("single-channel daemon: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"adjacency appendix on air", "packet(s) ahead of each index copy", "demo: 8 queries"} {
		if !strings.Contains(s, want) {
			t.Fatalf("single-channel output missing %q:\n%s", want, s)
		}
	}
	out, err = exec.Command(bin,
		"-demo", "-adjacency", "-shards", "3", "-dataset", "uniform", "-n", "120", "-capacity", "128",
		"-addr", "127.0.0.1:0").CombinedOutput()
	if err != nil {
		t.Fatalf("sharded daemon: %v\n%s", err, out)
	}
	s = string(out)
	for _, want := range []string{"adjacency appendix on air behind every channel directory", "demo: 8 queries"} {
		if !strings.Contains(s, want) {
			t.Fatalf("sharded output missing %q:\n%s", want, s)
		}
	}
}

// TestShardedSnapshotRestartEndToEnd runs the daemon twice with
// -snapshot-dir: the first run builds the fabric and writes one snapshot
// per shard, the second restores from them without building a D-tree. Both
// runs must resolve the same demo queries, proving the restored shards
// broadcast the same index. It runs on the single channel, on a sharded
// fabric and on a sharded fabric carrying the adjacency appendix.
func TestShardedSnapshotRestartEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	for _, tc := range []struct {
		S         int
		adjacency bool
	}{{1, false}, {2, false}, {2, true}} {
		t.Run(fmt.Sprintf("S=%d/adjacency=%v", tc.S, tc.adjacency), func(t *testing.T) {
			snapshotRestart(t, bin, tc.S, tc.adjacency)
		})
	}
}

func snapshotRestart(t *testing.T, bin string, S int, adjacency bool) {
	snapDir := filepath.Join(t.TempDir(), "snaps")
	run := func() string {
		out, err := exec.Command(bin,
			"-demo", "-shards", fmt.Sprint(S), fmt.Sprintf("-adjacency=%v", adjacency),
			"-dataset", "uniform", "-n", "80", "-capacity", "128",
			"-snapshot-dir", snapDir, "-addr", "127.0.0.1:0").CombinedOutput()
		if err != nil {
			t.Fatalf("daemon: %v\n%s", err, out)
		}
		return string(out)
	}

	first := run()
	if !strings.Contains(first, fmt.Sprintf("wrote %d shard snapshots to %s", S, snapDir)) {
		t.Fatalf("first run did not write snapshots:\n%s", first)
	}
	for ch := 0; ch < S; ch++ {
		if _, err := os.Stat(filepath.Join(snapDir, fmt.Sprintf("shard%d.dtsnap", ch))); err != nil {
			t.Fatalf("shard %d snapshot missing after first run: %v", ch, err)
		}
	}

	second := run()
	if !strings.Contains(second, fmt.Sprintf("restored %d shards from %s", S, snapDir)) {
		t.Fatalf("second run did not restore from snapshots:\n%s", second)
	}
	// Same seed, same dataset: the demo queries and their answers must
	// match line for line across the rebuild/restore boundary.
	queries := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "query (") {
				out = append(out, line)
			}
		}
		return out
	}
	q1, q2 := queries(first), queries(second)
	if len(q1) != 8 || len(q2) != 8 {
		t.Fatalf("expected 8 demo queries per run, got %d and %d", len(q1), len(q2))
	}
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("query %d diverged after restore:\nbuilt:    %s\nrestored: %s", i, q1[i], q2[i])
		}
	}
}

// TestIngestEndToEnd runs the daemon with -ingest-addr, POSTs a live site
// batch over HTTP, waits for the pipeline to cut a new generation onto the
// air, and then SIGTERMs the process expecting the ingest queue to drain
// before the broadcast goes away.
func TestIngestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	t.Run("single", func(t *testing.T) { ingestEndToEnd(t, bin) })
	t.Run("sharded", func(t *testing.T) { ingestEndToEnd(t, bin, "-shards", "3") })
}

func ingestEndToEnd(t *testing.T, bin string, extra ...string) {
	args := []string{
		"-dataset", "uniform", "-n", "40", "-capacity", "128", "-seed", "7",
		"-slot-duration", "2ms", "-addr", "127.0.0.1:0",
		"-ingest-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-cut-interval", "20ms", "-cut-max-ops", "8",
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ingestURL := make(chan string, 1)
	debugURL := make(chan string, 1)
	var mu sync.Mutex
	var tailBuf strings.Builder
	tail := func() string { mu.Lock(); defer mu.Unlock(); return tailBuf.String() }
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			tailBuf.WriteString(line + "\n")
			mu.Unlock()
			if _, rest, ok := strings.Cut(line, "ingest endpoint on http://"); ok {
				ingestURL <- "http://" + strings.Fields(rest)[0]
			}
			if _, rest, ok := strings.Cut(line, "debug endpoint on http://"); ok {
				debugURL <- "http://" + strings.Fields(rest)[0]
			}
		}
	}()
	// Reap only after the scanner hits EOF: Wait closes the stdout pipe
	// and would otherwise race the scanner out of the daemon's last lines
	// (the drain messages this test exists to observe).
	var waitErr error
	done := make(chan struct{})
	go func() { <-scanDone; waitErr = cmd.Wait(); close(done) }()
	defer func() {
		cmd.Process.Kill() //nolint:errcheck
		<-done
	}()
	await := func(ch chan string, what string) string {
		select {
		case u := <-ch:
			return u
		case <-done:
			t.Fatalf("daemon exited before announcing the %s endpoint: %v\n%s", what, waitErr, tail())
		case <-time.After(30 * time.Second):
			t.Fatalf("no %s endpoint announced\n%s", what, tail())
		}
		return ""
	}
	ingestBase := await(ingestURL, "ingest")
	debugBase := await(debugURL, "debug")

	// A live batch: one tagged add, a move addressed by its provisional
	// handle, and an anonymous add.
	body := `{"ops":[{"op":"add","id":-1,"x":5000,"y":5000},{"op":"move","id":-1,"x":120,"y":80},{"op":"add","x":9000,"y":1000}]}`
	resp, err := http.Post(ingestBase+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v\n%s", err, tail())
	}
	var acc struct {
		Accepted int `json:"accepted"`
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || decodeErr != nil || acc.Accepted != 3 {
		t.Fatalf("POST /ingest = %d accepted %d (decode %v), want 202 accepted 3\n%s",
			resp.StatusCode, acc.Accepted, decodeErr, tail())
	}

	// Malformed batches are refused at the door, not enqueued.
	resp, err = http.Post(ingestBase+"/ingest", "application/json", strings.NewReader(`{"ops":[{"op":"warp"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed POST = %d, want 400", resp.StatusCode)
	}

	// The batch must reach the air: a cut is counted in the shared metrics
	// registry and the on-air generation moves past the seed build.
	// In single-channel mode /healthz reports the server's health directly;
	// in sharded mode it nests one health object per shard, and an ingest
	// cut republishes only the shards the batch touched — any generation
	// moving past the seed build proves the cut reached the air.
	maxGen := func(v map[string]any) float64 {
		if g, ok := v["generation"].(float64); ok {
			return g
		}
		var best float64
		for _, sub := range v {
			if m, ok := sub.(map[string]any); ok {
				if g, ok := m["generation"].(float64); ok && g > best {
					best = g
				}
			}
		}
		return best
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var metrics map[string]any
		getJSON(t, debugBase+"/metrics", &metrics)
		cuts, _ := metrics["ingest_cuts"].(float64)
		var health map[string]any
		getJSON(t, debugBase+"/healthz", &health)
		if gen := maxGen(health); cuts >= 1 && gen >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ingest cut on the air: cuts=%v health=%v\n%s", cuts, health, tail())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Graceful shutdown drains the ingest queue before the servers stop.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM\n%s", tail())
	}
	if waitErr != nil {
		t.Fatalf("daemon exited with %v\n%s", waitErr, tail())
	}
	out := tail()
	for _, want := range []string{"broadcastd: ingest queue drained", "broadcastd: stopped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "broadcastd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// getJSON fetches url and decodes the JSON body, retrying briefly — the
// endpoint may be a few milliseconds from accepting connections.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				err = rerr
			} else if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: status %s: %s", url, resp.Status, body)
			} else if err = json.Unmarshal(body, v); err == nil {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
