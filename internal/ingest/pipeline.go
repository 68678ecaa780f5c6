package ingest

import (
	"context"
	"fmt"
	"time"

	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/stream"
)

// Sink is the generation-cut backend the pipeline feeds — satisfied by
// FabricSink (a fabric.Swapper of any channel count) and SwapperSink (the
// single-channel stream.Swapper perfbench drives). The Pending/republish
// contract is load-bearing: after a failed cut, Pending reports true and an
// empty Apply republishes the already-applied state, so retries never
// re-apply operations.
type Sink interface {
	// ApplyBatch applies ops and cuts a generation. ids maps each applied
	// batch position to its (new or touched) site id; a shortened ids with
	// a non-nil error means the prefix was applied and published and the
	// op at index len(ids) was refused.
	ApplyBatch(ops []stream.SiteOp) (ids []int, err error)
	// Pending reports whether applied state is ahead of the air — i.e. a
	// cut failed after mutating and an empty ApplyBatch must republish.
	Pending() bool
}

// SwapperSink adapts a single-channel stream.Swapper.
func SwapperSink(sw *stream.Swapper) Sink { return swapperSink{sw} }

type swapperSink struct{ sw *stream.Swapper }

func (s swapperSink) ApplyBatch(ops []stream.SiteOp) ([]int, error) {
	_, ids, err := s.sw.Apply(ops)
	return ids, err
}
func (s swapperSink) Pending() bool { return s.sw.Pending() }

// FabricSink adapts a fabric.Swapper.
func FabricSink(sw *fabric.Swapper) Sink { return fabricSink{sw} }

type fabricSink struct{ sw *fabric.Swapper }

func (s fabricSink) ApplyBatch(ops []stream.SiteOp) ([]int, error) {
	_, ids, err := s.sw.Apply(ops)
	return ids, err
}
func (s fabricSink) Pending() bool { return s.sw.Pending() }

// Config tunes the pipeline; zero values take the documented defaults.
type Config struct {
	QueueCap     int           // admission ring capacity (default 4096)
	Policy       Policy        // overflow policy (default Reject)
	BlockTimeout time.Duration // Block policy wait bound (default 100ms)

	CutMaxOps   int           // cut when the window holds this many ops (default 256)
	CutInterval time.Duration // ... or when this much time passed since the window opened (default 200ms)

	StageTimeout time.Duration // cut wall-clock budget before it is counted overdue (default 30s)
	MaxRetries   int           // republish retries after a failed cut (default 5)
	RetryBackoff time.Duration // first retry delay, doubling per attempt (default 50ms)

	Logf    func(format string, args ...any) // degradation log; nil = silent
	Metrics *Metrics                         // nil = fresh private registry
}

func (c *Config) fill() {
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 100 * time.Millisecond
	}
	if c.CutMaxOps <= 0 {
		c.CutMaxOps = 256
	}
	if c.CutInterval <= 0 {
		c.CutInterval = 200 * time.Millisecond
	}
	if c.StageTimeout <= 0 {
		c.StageTimeout = 30 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
}

// Pipeline is the assembled ingest front-end: admission queue, coalescer
// and the single cut worker. Create with Start, feed with Enqueue (or the
// HTTP handler), stop with Close.
type Pipeline struct {
	cfg   Config
	q     *Queue
	sink  Sink
	m     *Metrics
	prov  map[int64]int // provisional handle -> live site id (worker-only)
	quar  bool          // a panic poisoned the sink; serve what's on air, apply nothing
	genHi uint64        // cuts landed (worker-only writes; read via Metrics)
	done  chan struct{}
}

// Start wires the pipeline to a sink and launches the cut worker.
func Start(sink Sink, cfg Config) *Pipeline {
	cfg.fill()
	p := &Pipeline{
		cfg:  cfg,
		sink: sink,
		m:    cfg.Metrics,
		prov: make(map[int64]int),
		done: make(chan struct{}),
	}
	p.q = NewQueue(cfg.QueueCap, cfg.Policy, cfg.BlockTimeout, p.m)
	go p.run()
	return p
}

// Enqueue admits a batch of operations (batch-atomic; see Queue.Enqueue).
func (p *Pipeline) Enqueue(ops ...Op) error { return p.q.Enqueue(ops...) }

// Depth reports how many operations wait in the admission ring.
func (p *Pipeline) Depth() int { return p.q.Depth() }

// Metrics exposes the pipeline's observability set.
func (p *Pipeline) Metrics() *Metrics { return p.m }

// Close stops admission, drains every queued operation through final cuts,
// and waits for the worker to exit — or for ctx, whichever first. A nil
// ctx waits indefinitely.
func (p *Pipeline) Close(ctx context.Context) error {
	p.q.Close()
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-p.done:
		return nil
	case <-cancel:
		return ctx.Err()
	}
}

// run is the cut worker: gather a window, coalesce, apply, repeat until
// the queue is closed and drained.
func (p *Pipeline) run() {
	defer close(p.done)
	co := newCoalescer(p.m)
	for {
		e, ok := p.q.popOne(time.Time{})
		if !ok {
			return // closed and drained
		}
		co.add(e)
		windowEnd := time.Now().Add(p.cfg.CutInterval)
		for co.len() < p.cfg.CutMaxOps {
			e, ok := p.q.popOne(windowEnd)
			if !ok {
				// Deadline — or closed-and-empty, which the next outer
				// popOne disambiguates.
				break
			}
			co.add(e)
		}
		p.cut(co.flush())
	}
}

// cut applies one coalesced window through the sink with the full
// degradation ladder: handle resolution, panic quarantine, per-op
// rejection, and pending-republish retries.
func (p *Pipeline) cut(batch []pendingOp) {
	if p.quar {
		// A previous cut panicked; the sink is not trusted with mutations
		// any more. Count the work and let the air serve the last good
		// generation.
		p.m.QuarantinedBatches.Inc()
		p.m.QuarantinedOps.Add(int64(len(batch)))
		return
	}
	ops, meta := p.resolve(batch)
	for len(ops) > 0 {
		ids, err, panicked := p.applyOnce(ops)
		if panicked {
			p.quar = true
			p.m.QuarantinedBatches.Inc()
			p.m.QuarantinedOps.Add(int64(len(ops)))
			p.cfg.Logf("ingest: cut panicked; quarantining pipeline (%d ops dropped)", len(ops))
			// One guarded attempt to republish whatever prefix may have
			// mutated before the panic, so the air does not drift from the
			// maintainer. If this also fails the air keeps the last good
			// generation.
			if p.sink.Pending() {
				func() {
					defer func() { recover() }()
					p.sink.ApplyBatch(nil)
				}()
			}
			return
		}
		applied := len(ids)
		if applied > len(ops) {
			applied = len(ops)
		}
		p.settle(ops[:applied], meta[:applied], ids[:applied])
		if err == nil {
			p.m.Cuts.Inc()
			p.genHi++
			p.m.CutOps.Observe(int64(applied))
			return
		}
		if !p.sink.Pending() {
			// The op at index len(ids) was refused; the prefix is already on
			// air. Drop the poisoned op, continue with the suffix.
			if applied < len(ops) {
				p.m.RejectedOps.Inc()
				p.cfg.Logf("ingest: op rejected by swapper, dropping it: %v", err)
				if applied > 0 {
					p.m.Cuts.Inc()
					p.genHi++
					p.m.CutOps.Observe(int64(applied))
				}
				ops = ops[applied+1:]
				meta = meta[applied+1:]
				continue
			}
			// Error, nothing pending, nothing refused: the sink broke its
			// contract. Log loudly and stop touching this batch.
			p.cfg.Logf("ingest: sink error with no pending state and no refused op: %v", err)
			return
		}
		// The operations mutated the maintainer but the cut did not land
		// (build or publish failure). Republish with backoff; Apply(nil)
		// recompiles from scratch, never re-applies ops.
		if !p.republish() {
			return
		}
		p.m.Cuts.Inc()
		p.genHi++
		p.m.CutOps.Observe(int64(applied))
		return
	}
}

// republish retries an empty ApplyBatch until the pending state lands on
// air or retries are exhausted. Reports success.
func (p *Pipeline) republish() bool {
	backoff := p.cfg.RetryBackoff
	for attempt := 1; attempt <= p.cfg.MaxRetries; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		p.m.Retries.Inc()
		_, err, panicked := p.applyOnce(nil)
		if panicked {
			p.quar = true
			p.cfg.Logf("ingest: republish panicked; quarantining pipeline")
			return false
		}
		if err == nil {
			return true
		}
		p.cfg.Logf("ingest: republish attempt %d/%d failed: %v", attempt, p.cfg.MaxRetries, err)
	}
	p.cfg.Logf("ingest: republish abandoned after %d attempts; air lags the maintainer until the next cut", p.cfg.MaxRetries)
	return false
}

// applyOnce runs one sink apply under panic isolation and the stage
// timeout watchdog. The watchdog only observes — a wedged sink cannot be
// safely abandoned mid-mutation, so the worker logs, counts CutTimeouts,
// and keeps waiting.
func (p *Pipeline) applyOnce(ops []stream.SiteOp) (ids []int, err error, panicked bool) {
	watchdog := time.AfterFunc(p.cfg.StageTimeout, func() {
		p.m.CutTimeouts.Inc()
		p.cfg.Logf("ingest: cut exceeded stage timeout %v (%d ops); still waiting", p.cfg.StageTimeout, len(ops))
	})
	defer watchdog.Stop()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ingest: cut panic: %v", r)
			panicked = true
		}
	}()
	ids, err = p.sink.ApplyBatch(ops)
	return ids, err, false
}

// resolve translates a coalesced window into swapper operations: handles
// (< 0) become live site ids via the provisional map, dangling references
// are dropped and counted. meta parallels ops for latency accounting and
// handle registration after the cut lands.
func (p *Pipeline) resolve(batch []pendingOp) ([]stream.SiteOp, []pendingOp) {
	ops := make([]stream.SiteOp, 0, len(batch))
	meta := make([]pendingOp, 0, len(batch))
	for _, po := range batch {
		var op stream.SiteOp
		switch po.state {
		case pendAdd:
			op = stream.SiteOp{Kind: stream.OpAdd, P: geom.Pt(po.x, po.y)}
		case pendMove, pendRemove:
			id := po.id
			if id < 0 {
				real, ok := p.prov[id]
				if !ok {
					p.m.InvalidOps.Inc()
					p.cfg.Logf("ingest: dropping op on unknown handle %d", id)
					continue
				}
				id = int64(real)
			}
			kind := stream.OpMove
			if po.state == pendRemove {
				kind = stream.OpRemove
			}
			op = stream.SiteOp{Kind: kind, ID: int(id), P: geom.Pt(po.x, po.y)}
		default:
			continue
		}
		ops = append(ops, op)
		meta = append(meta, po)
	}
	return ops, meta
}

// settle records the consequences of applied operations: provisional
// handles bind to (or retire from) real site ids and each op's
// admission-to-on-air latency is observed.
func (p *Pipeline) settle(ops []stream.SiteOp, meta []pendingOp, ids []int) {
	now := time.Now()
	for i := range ops {
		switch ops[i].Kind {
		case stream.OpAdd:
			if meta[i].id < 0 {
				p.prov[meta[i].id] = ids[i]
			}
		case stream.OpRemove:
			if meta[i].id < 0 {
				delete(p.prov, meta[i].id)
			}
		}
		p.m.OpLatencyNS.Observe(now.Sub(meta[i].at).Nanoseconds())
	}
}
