package ingest

import (
	"sync"
	"time"
)

// entry is one queued operation with its admission timestamp, the anchor
// of the op-to-on-air latency histogram.
type entry struct {
	op Op
	at time.Time
}

// Queue is the admission stage: a fixed-capacity ring of operations with
// batch-atomic enqueue and a configurable overflow policy. Memory never
// exceeds the ring — overload becomes ErrQueueFull (or shed moves), not
// growth. Any number of producers may Enqueue concurrently; the pipeline's
// single cut worker consumes.
type Queue struct {
	mu     sync.Mutex
	buf    []entry
	head   int // index of the oldest entry
	n      int // occupied entries
	closed bool

	policy       Policy
	blockTimeout time.Duration
	m            *Metrics

	nonEmpty chan struct{} // cap 1: consumer wake-up after a push
	space    chan struct{} // cap 1: blocked-producer wake-up after a pop
	closedCh chan struct{} // closed on Close
}

// NewQueue builds a queue of the given capacity (minimum 1). blockTimeout
// bounds the wait of the Block policy; the other policies ignore it.
func NewQueue(capacity int, policy Policy, blockTimeout time.Duration, m *Metrics) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	if m == nil {
		m = NewMetrics()
	}
	return &Queue{
		buf:          make([]entry, capacity),
		policy:       policy,
		blockTimeout: blockTimeout,
		m:            m,
		nonEmpty:     make(chan struct{}, 1),
		space:        make(chan struct{}, 1),
		closedCh:     make(chan struct{}),
	}
}

// Depth returns the number of queued operations.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Close rejects all future enqueues with ErrClosed; queued operations
// remain poppable so the worker can drain them.
func (q *Queue) Close() {
	q.mu.Lock()
	already := q.closed
	q.closed = true
	q.mu.Unlock()
	if !already {
		close(q.closedCh)
	}
}

// Enqueue admits a batch atomically: either every operation is queued (in
// order, contiguously) or none is and the error tells why — ErrQueueFull
// under the overflow policy, ErrClosed after Close. A batch larger than
// the ring capacity is always ErrQueueFull.
func (q *Queue) Enqueue(ops ...Op) error {
	if len(ops) == 0 {
		return nil
	}
	now := time.Now()
	deadline := now.Add(q.blockTimeout)
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return ErrClosed
		}
		if q.room(len(ops)) {
			for _, op := range ops {
				q.buf[(q.head+q.n)%len(q.buf)] = entry{op: op, at: now}
				q.n++
			}
			q.m.EnqueuedOps.Add(int64(len(ops)))
			q.m.QueueDepth.Set(int64(q.n))
			free := len(q.buf) - q.n
			q.mu.Unlock()
			select {
			case q.nonEmpty <- struct{}{}:
			default:
			}
			if free > 0 {
				// Another producer may be blocked on space this enqueue did
				// not consume; pass the wake-up along.
				select {
				case q.space <- struct{}{}:
				default:
				}
			}
			return nil
		}
		q.mu.Unlock()
		if q.policy != Block {
			q.m.ShedOps.Add(int64(len(ops)))
			return ErrQueueFull
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			q.m.ShedOps.Add(int64(len(ops)))
			return ErrQueueFull
		}
		t := time.NewTimer(wait)
		select {
		case <-q.space:
			t.Stop()
		case <-q.closedCh:
			t.Stop()
			return ErrClosed
		case <-t.C:
			q.m.ShedOps.Add(int64(len(ops)))
			return ErrQueueFull
		}
	}
}

// room reports whether need entries fit, shedding old moves first under
// the DropOldestMove policy. Caller holds mu.
func (q *Queue) room(need int) bool {
	if need > len(q.buf) {
		return false
	}
	if q.policy == DropOldestMove {
		for len(q.buf)-q.n < need {
			if !q.dropOldestMove() {
				break
			}
		}
	}
	return len(q.buf)-q.n >= need
}

// dropOldestMove removes one queued Move, preserving the order of
// everything else. Superseded moves go first — a Move whose site has a
// younger Move or Remove queued behind it contributes nothing to the final
// state, so shedding it is free. Only when every queued Move is still live
// does the policy fall back to the strictly oldest one (genuine data loss,
// but the oldest position is the stalest). Caller holds mu; reports whether
// a move was found.
func (q *Queue) dropOldestMove() bool {
	victim := -1
	for i := 0; i < q.n && victim < 0; i++ {
		op := q.buf[(q.head+i)%len(q.buf)].op
		if op.Kind != OpMove {
			continue
		}
		for j := i + 1; j < q.n; j++ {
			later := q.buf[(q.head+j)%len(q.buf)].op
			if later.ID == op.ID && (later.Kind == OpMove || later.Kind == OpRemove) {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		for i := 0; i < q.n; i++ {
			if q.buf[(q.head+i)%len(q.buf)].op.Kind == OpMove {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		return false
	}
	// Shift the younger entries down over the gap.
	for j := victim; j < q.n-1; j++ {
		q.buf[(q.head+j)%len(q.buf)] = q.buf[(q.head+j+1)%len(q.buf)]
	}
	q.buf[(q.head+q.n-1)%len(q.buf)] = entry{}
	q.n--
	q.m.DroppedMove.Inc()
	q.m.QueueDepth.Set(int64(q.n))
	return true
}

// popOne removes and returns the oldest entry, waiting until one arrives,
// the deadline passes (zero deadline = wait indefinitely), or the queue is
// closed and empty. ok is false only on deadline or closed-and-empty.
func (q *Queue) popOne(deadline time.Time) (entry, bool) {
	for {
		q.mu.Lock()
		if q.n > 0 {
			e := q.buf[q.head]
			q.buf[q.head] = entry{}
			q.head = (q.head + 1) % len(q.buf)
			q.n--
			q.m.QueueDepth.Set(int64(q.n))
			q.mu.Unlock()
			select {
			case q.space <- struct{}{}:
			default:
			}
			return e, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return entry{}, false
		}
		var (
			timer   *time.Timer
			timeout <-chan time.Time
		)
		if !deadline.IsZero() {
			wait := time.Until(deadline)
			if wait <= 0 {
				return entry{}, false
			}
			timer = time.NewTimer(wait)
			timeout = timer.C
		}
		select {
		case <-q.nonEmpty:
		case <-q.closedCh:
		case <-timeout:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}
