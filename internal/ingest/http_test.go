package ingest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"airindex/internal/stream"
)

// blockSink parks every apply on a gate so tests can fill the queue
// deterministically behind a wedged cut.
type blockSink struct {
	mu      sync.Mutex
	applied int
	entered chan struct{} // one token per ApplyBatch entry
	gate    chan struct{} // closed to release all applies
}

func newBlockSink() *blockSink {
	return &blockSink{entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (b *blockSink) ApplyBatch(ops []stream.SiteOp) ([]int, error) {
	b.entered <- struct{}{}
	<-b.gate
	b.mu.Lock()
	b.applied += len(ops)
	b.mu.Unlock()
	ids := make([]int, len(ops))
	return ids, nil
}

func (b *blockSink) Pending() bool { return false }

func postBatch(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHandlerAcceptAndBackpressure(t *testing.T) {
	sink := newBlockSink()
	cfg := fastConfig()
	cfg.QueueCap = 4
	cfg.CutMaxOps = 1
	cfg.CutInterval = time.Millisecond
	p := Start(sink, cfg)
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	// First op: accepted, and the worker wedges applying it.
	resp := postBatch(t, ts.URL, `{"ops":[{"op":"add","x":1,"y":2}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first post = %d, want 202", resp.StatusCode)
	}
	var acc struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil || acc.Accepted != 1 {
		t.Fatalf("accepted body = %+v (err %v), want accepted:1", acc, err)
	}
	<-sink.entered // cut worker is now parked inside ApplyBatch

	// Four more fill the ring exactly.
	resp = postBatch(t, ts.URL, `{"ops":[{"op":"add","x":1,"y":1},{"op":"add","x":2,"y":2},{"op":"add","x":3,"y":3},{"op":"add","x":4,"y":4}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill post = %d, want 202", resp.StatusCode)
	}

	// The ring is full and the worker wedged: deterministic 429.
	resp = postBatch(t, ts.URL, `{"ops":[{"op":"add","x":9,"y":9}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow post = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if got := p.m.ShedOps.Load(); got != 1 {
		t.Fatalf("ShedOps = %d, want 1", got)
	}

	// Release the sink: every accepted op applies, the shed one never does.
	close(sink.gate)
	if err := p.Close(nil); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.applied != 5 {
		t.Fatalf("applied ops = %d, want exactly the 5 accepted", sink.applied)
	}
}

func TestHandlerRejectsMalformedBatches(t *testing.T) {
	p := Start(newFakeSink(), fastConfig())
	defer p.Close(nil)
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"truncated json", `{"ops":[{"op":"add"`},
		{"unknown op", `{"ops":[{"op":"teleport","id":1}]}`},
		{"unknown field", `{"ops":[{"op":"add","lat":12.0}]}`},
		{"empty batch", `{"ops":[]}`},
		{"positive id add", `{"ops":[{"op":"add","id":7,"x":1,"y":1}]}`},
	}
	for _, tc := range cases {
		resp := postBatch(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if got := p.Depth(); got != 0 {
		t.Fatalf("malformed batches leaked %d ops into the queue", got)
	}

	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest = %d, want 405", resp.StatusCode)
	}
}

// TestHandlerRejectsMissingIDAndTrailingData: a move or remove without an
// "id" must not decode to id 0 and touch live site 0, and bytes after the
// batch (a second concatenated batch) must not be dropped behind a 202.
func TestHandlerRejectsMissingIDAndTrailingData(t *testing.T) {
	p := Start(newFakeSink(), fastConfig())
	defer p.Close(nil)
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"move without id", `{"ops":[{"op":"move","x":1,"y":1}]}`, http.StatusBadRequest},
		{"remove without id", `{"ops":[{"op":"remove"}]}`, http.StatusBadRequest},
		{"second batch", `{"ops":[{"op":"add","x":1,"y":1}]}{"ops":[{"op":"remove","id":0}]}`, http.StatusBadRequest},
		{"trailing garbage", `{"ops":[{"op":"add","x":1,"y":1}]} x`, http.StatusBadRequest},
		{"move of site 0", `{"ops":[{"op":"move","id":0,"x":1,"y":1}]}`, http.StatusAccepted},
		{"trailing whitespace", "{\"ops\":[{\"op\":\"add\",\"x\":1,\"y\":1}]}\n", http.StatusAccepted},
	} {
		if got := postBatch(t, ts.URL, tc.body).StatusCode; got != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// FuzzIngestBatch: the body decoder never panics, and every batch it
// accepts is non-empty, of known kinds, with non-positive add ids and an
// explicit id on every move and remove.
func FuzzIngestBatch(f *testing.F) {
	for _, seed := range []string{
		`{"ops":[{"op":"add","id":-1,"x":120.5,"y":340.25}]}`,
		`{"ops":[{"op":"move","id":17,"x":99,"y":12.5},{"op":"remove","id":17}]}`,
		`{"ops":[{"op":"add","x":1,"y":1}]}{"ops":[]}`,
		`{"ops":[{"op":"move","x":1}]}`,
		`{"ops":[]}`,
		`{"ops":null}`,
		`[]`,
		`{"OPS":[{"Op":"remove","ID":3}]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ops, err := decodeBatch(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(ops) == 0 {
			t.Fatalf("accepted an empty batch from %q", body)
		}
		for i, op := range ops {
			switch op.Kind {
			case OpAdd:
				if op.ID > 0 {
					t.Fatalf("op %d: add with positive id %d from %q", i, op.ID, body)
				}
			case OpMove, OpRemove:
			default:
				t.Fatalf("op %d: unknown kind %d from %q", i, op.Kind, body)
			}
		}
		// Every accepted move and remove named its site in the body (field
		// names match case-insensitively, as the decoder matches them).
		var raw struct {
			Ops []map[string]json.RawMessage `json:"ops"`
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatalf("accepted body %q is not a JSON batch: %v", body, err)
		}
		for i, op := range ops {
			if op.Kind == OpAdd {
				continue
			}
			named := false
			for k := range raw.Ops[i] {
				named = named || strings.EqualFold(k, "id")
			}
			if !named {
				t.Fatalf("op %d: kind %d accepted without an id from %q", i, op.Kind, body)
			}
		}
	})
}

func TestHandlerClosedPipeline(t *testing.T) {
	p := Start(newFakeSink(), fastConfig())
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()
	if err := p.Close(nil); err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, ts.URL, `{"ops":[{"op":"add","x":1,"y":1}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post after close = %d, want 503", resp.StatusCode)
	}
}

func TestHandlerMetricsEndpoint(t *testing.T) {
	p := Start(newFakeSink(), fastConfig())
	defer p.Close(nil)
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	if err := p.Enqueue(Op{Kind: OpAdd, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	for _, key := range []string{"ingest_enqueued_ops", "ingest_queue_depth", "ingest_coalesce_ratio"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("metrics snapshot missing %q (have %d keys)", key, len(snap))
		}
	}
}
