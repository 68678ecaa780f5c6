// Package ingest is the asynchronous update front-end of the broadcast
// stack: it absorbs a continuous stream of site add/remove/move operations
// from any number of producers, folds redundant operations per site,
// and cuts generations through a fabric.Swapper (or a stream.Swapper) at a
// bounded, configurable pace — so a production-rate churn stream feeds the
// incremental cut machinery without ever holding more than a fixed amount
// of memory or wedging the serving path.
//
// The pipeline has three stages:
//
//  1. Admission (Queue): a fixed-capacity ring with typed rejection
//     (ErrQueueFull) and a configurable overflow policy — reject
//     immediately, block with a deadline, or shed the oldest queued move
//     (moves are superseded by later state; adds and removes never shed).
//     Memory is bounded by the ring, period: overload turns into
//     backpressure (429 on the HTTP endpoint), never into growth.
//
//  2. Coalescing: operations targeting the same site fold before they cost
//     a rebuild — move+move keeps only the newest position, add+remove
//     annihilates, move+remove keeps the remove — and a generation is cut
//     when the window reaches CutMaxOps or CutInterval elapses, whichever
//     comes first. Coalescing preserves final-state equivalence with
//     op-by-op application (pinned by TestCoalesceEquivalenceProperty).
//
//  3. The cut worker: one goroutine applies each coalesced batch through
//     the swapper off the serving hot path, building generation N+1 while
//     N streams on the air. Failures degrade, never escalate: a panicking
//     cut is recovered and the batch quarantined; a rejected operation is
//     dropped and the rest of the batch proceeds; a failed cut (built but
//     not published, or not built at all) retries with backoff through the
//     swapper's Pending/republish contract, which falls back to a
//     from-scratch rebuild — operations are never applied twice.
//
// Producers address live sites by their stable ids. An Add carries no id
// yet; a producer that wants to move or remove a site it just submitted
// tags the Add with a negative provisional id of its choosing and uses
// that handle in later operations — the pipeline resolves handles to real
// ids as cuts land and retires them when the site is removed.
package ingest

import (
	"errors"
	"fmt"

	"airindex/internal/stream"
)

// Site operation kinds, mirroring stream.SiteOp.
const (
	OpAdd    = stream.OpAdd
	OpRemove = stream.OpRemove
	OpMove   = stream.OpMove
)

// Op is one site mutation submitted to the pipeline.
//
// ID identifies the target site for Remove and Move: a value >= 0 is a
// stable live-site id, a value < 0 is a provisional handle naming a
// tagged Add submitted earlier (possibly in the same batch). For Add, a
// negative ID tags the new site with that provisional handle; zero leaves
// it untagged (the site can then only be addressed once its real id is
// learned out of band).
type Op struct {
	Kind int     `json:"kind"`
	ID   int64   `json:"id"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// Errors the admission layer reports. ErrQueueFull is the typed rejection
// the HTTP endpoint maps to 429 + Retry-After.
var (
	ErrQueueFull = errors.New("ingest: queue full")
	ErrClosed    = errors.New("ingest: pipeline closed")
)

// Policy selects what Enqueue does when the ring has no room for a batch.
type Policy int

const (
	// Reject fails the whole batch immediately with ErrQueueFull.
	Reject Policy = iota
	// Block waits up to BlockTimeout for the cut worker to free room, then
	// fails with ErrQueueFull.
	Block
	// DropOldestMove shedds the oldest queued Move operations to make
	// room — a move is superseded state, so dropping an old one degrades
	// position freshness but never loses a site or resurrects one. When no
	// moves remain to shed, the batch is rejected like Reject.
	DropOldestMove
)

// String names the policy for logs and flag parsing.
func (p Policy) String() string {
	switch p {
	case Reject:
		return "reject"
	case Block:
		return "block"
	case DropOldestMove:
		return "drop-move"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reject":
		return Reject, nil
	case "block":
		return Block, nil
	case "drop-move":
		return DropOldestMove, nil
	}
	return 0, fmt.Errorf("ingest: unknown overflow policy %q (want reject, block or drop-move)", s)
}
