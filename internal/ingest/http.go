package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxBodyBytes bounds one ingest request body; with ~60 bytes per JSON op
// this admits batches far beyond any sane queue capacity while keeping a
// hostile client from ballooning the decoder.
const maxBodyBytes = 1 << 20

// wireOp is the JSON wire form of one operation:
//
//	{"op":"add","id":-1,"x":120.5,"y":340.25}
//	{"op":"move","id":17,"x":99.0,"y":12.5}
//	{"op":"remove","id":17}
//
// Move and remove must carry "id": a missing field would otherwise decode
// to id 0 and touch live site 0. Add may omit it.
type wireOp struct {
	Op string  `json:"op"`
	ID *int64  `json:"id"`
	X  float64 `json:"x,omitempty"`
	Y  float64 `json:"y,omitempty"`
}

type wireBatch struct {
	Ops []wireOp `json:"ops"`
}

func (w wireOp) toOp() (Op, error) {
	var id int64
	if w.ID != nil {
		id = *w.ID
	} else if w.Op == "move" || w.Op == "remove" {
		return Op{}, fmt.Errorf("%s must carry the id of its site", w.Op)
	}
	switch w.Op {
	case "add":
		if id > 0 {
			return Op{}, fmt.Errorf("add must not carry a positive id (got %d); use a negative provisional handle or omit it", id)
		}
		return Op{Kind: OpAdd, ID: id, X: w.X, Y: w.Y}, nil
	case "move":
		return Op{Kind: OpMove, ID: id, X: w.X, Y: w.Y}, nil
	case "remove":
		return Op{Kind: OpRemove, ID: id}, nil
	}
	return Op{}, fmt.Errorf("unknown op %q (want add, move or remove)", w.Op)
}

// errEmptyBatch rejects a well-formed batch that carries no operations.
var errEmptyBatch = errors.New("empty batch")

// decodeBatch reads one request body: a single JSON batch with no unknown
// fields and nothing after it, holding at least one valid operation.
func decodeBatch(r io.Reader) ([]Op, error) {
	var batch wireBatch
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return nil, fmt.Errorf("bad batch: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("bad batch: trailing data after the batch")
	}
	if len(batch.Ops) == 0 {
		return nil, errEmptyBatch
	}
	ops := make([]Op, 0, len(batch.Ops))
	for i, wo := range batch.Ops {
		op, err := wo.toOp()
		if err != nil {
			return nil, fmt.Errorf("op %d: %v", i, err)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// NewHandler serves the pipeline over HTTP: POST a JSON batch, get 202
// with {"accepted":N} when the whole batch was admitted, 400 on malformed
// input, 429 with Retry-After when the queue sheds it, 503 once the
// pipeline is closed. Admission is batch-atomic — a 429 means zero of the
// batch's operations were queued, so the client retries the batch whole.
func NewHandler(p *Pipeline) http.Handler {
	retryAfter := int(p.cfg.CutInterval / time.Second)
	if retryAfter < 1 {
		retryAfter = 1
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			httpError(w, http.StatusMethodNotAllowed, "POST a JSON op batch")
			return
		}
		ops, err := decodeBatch(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			if err != errEmptyBatch {
				p.m.InvalidOps.Inc()
			}
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		switch err := p.Enqueue(ops...); {
		case err == nil:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]int{"accepted": len(ops)})
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", fmt.Sprint(retryAfter))
			httpError(w, http.StatusTooManyRequests, "queue full, retry the whole batch")
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, "pipeline closed")
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p.m.Snapshot())
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
