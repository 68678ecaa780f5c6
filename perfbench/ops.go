package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"airindex/internal/geom"
	"airindex/internal/ingest"
	"airindex/internal/stream"
)

// batchRec is one ApplyBatch call the cut worker made, as the recording
// sink saw it: the coalesced operations, how many applied, and the
// generation of every channel before and after.
type batchRec struct {
	start, end time.Time
	ops        []stream.SiteOp
	ids        []int // batch position -> site id, for the applied prefix
	err        error
	before     []uint32
	after      []uint32
	// permille is the cut's rebuilt-node fraction per channel that advanced,
	// read from that channel's server metrics right after the cut.
	permille []int64
}

// advanced reports whether the batch put a new generation on any channel.
func (b *batchRec) advanced() bool {
	for ch := range b.after {
		if b.after[ch] > b.before[ch] {
			return true
		}
	}
	return false
}

// recSink wraps the pipeline's real sink and records every batch, so the
// benchmark can time the cut from outside and tie every operation to the
// generation that carried it on air.
type recSink struct {
	inner ingest.Sink
	a     *air
	tr    *tracer

	mu   sync.Mutex
	recs []batchRec
}

func (s *recSink) ApplyBatch(ops []stream.SiteOp) ([]int, error) {
	before := s.a.gens()
	start := time.Now()
	ids, err := s.inner.ApplyBatch(ops)
	end := time.Now()
	rec := batchRec{
		start: start, end: end,
		ops:    append([]stream.SiteOp(nil), ops...),
		ids:    append([]int(nil), ids...),
		err:    err,
		before: before,
		after:  s.a.gens(),
	}
	for ch := range rec.after {
		if rec.after[ch] > rec.before[ch] {
			rec.permille = append(rec.permille, s.a.srvs[ch].Metrics().CutDirtyPermille.Load())
		}
	}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
	s.tr.record("swapper.apply", start, end.Sub(start))
	return ids, err
}

func (s *recSink) Pending() bool { return s.inner.Pending() }

func (s *recSink) batches() []batchRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]batchRec(nil), s.recs...)
}

// offeredOp is one operation the open-loop producer offered to ingest.
type offeredOp struct {
	key   int64 // site id (>= 0) or the producer's provisional handle (< 0)
	kind  int
	p     geom.Point
	due   time.Time // scheduled send time
	start time.Time // when Enqueue was called
	sent  time.Time // when Enqueue returned
	shed  bool      // Enqueue refused it
}

// The mixed producer draws one add and one remove in every mixTenths
// operations and moves otherwise: the move-heavy mix of the ingest
// experiment's producer (internal/experiment/ingest.go).
const (
	mixTenths = 10
	mixAdds   = 1
	mixRemove = 1
)

// producer is an open-loop update source: operation i is due at
// start + i/rate whatever the pipeline is doing, so a stalled pipeline
// shows up as queueing, not as a slower producer. Moves-only producers
// touch the initial sites; mixed producers also add sites (under
// provisional handles) and remove sites, in the mix above.
type producer struct {
	rng   *rand.Rand
	area  geom.Rect
	mixed bool
	live  []int64 // keys the producer may still address
	next  int64   // next provisional handle
}

func newProducer(seed int64, area geom.Rect, sites int, mixed bool) *producer {
	live := make([]int64, sites)
	for i := range live {
		live[i] = int64(i)
	}
	return &producer{rng: rand.New(rand.NewSource(seed)), area: area, mixed: mixed, live: live, next: -1}
}

// op draws the next operation from the producer's own view of the site set.
func (p *producer) op() (ingest.Op, offeredOp) {
	kind := ingest.OpMove
	if p.mixed {
		switch k := p.rng.Intn(mixTenths); {
		case k < mixAdds:
			kind = ingest.OpAdd
		case k < mixAdds+mixRemove:
			kind = ingest.OpRemove
		}
	}
	switch kind {
	case ingest.OpAdd:
		pt := randomPoint(p.rng, p.area)
		h := p.next
		p.next--
		p.live = append(p.live, h)
		return ingest.Op{Kind: kind, ID: h, X: pt.X, Y: pt.Y}, offeredOp{key: h, kind: kind, p: pt}
	case ingest.OpRemove:
		j := p.rng.Intn(len(p.live))
		key := p.live[j]
		p.live[j] = p.live[len(p.live)-1]
		p.live = p.live[:len(p.live)-1]
		return ingest.Op{Kind: kind, ID: key}, offeredOp{key: key, kind: kind}
	default:
		key := p.live[p.rng.Intn(len(p.live))]
		pt := randomPoint(p.rng, p.area)
		return ingest.Op{Kind: kind, ID: key, X: pt.X, Y: pt.Y}, offeredOp{key: key, kind: kind, p: pt}
	}
}

// run offers operations at rate per second from start until stop, one
// Enqueue per operation, and returns every operation offered.
func (p *producer) run(pipe *ingest.Pipeline, rate float64, start, stop time.Time, tr *tracer) []offeredOp {
	var out []offeredOp
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(stop) {
			return out
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		op, rec := p.op()
		rec.due = due
		rec.start = time.Now()
		err := pipe.Enqueue(op)
		rec.sent = time.Now()
		tr.record("ingest.enqueue", rec.start, rec.sent.Sub(rec.start))
		if err != nil {
			// A refused op never reaches the producer's view of the site set
			// on the pipeline side; undo the local bookkeeping for adds and
			// removes so later ops stay self-consistent.
			rec.shed = true
			p.undo(rec)
		}
		out = append(out, rec)
	}
}

// undo reverts the local effect of a refused add or remove.
func (p *producer) undo(rec offeredOp) {
	switch rec.kind {
	case ingest.OpAdd:
		for j := len(p.live) - 1; j >= 0; j-- {
			if p.live[j] == rec.key {
				p.live = append(p.live[:j], p.live[j+1:]...)
				break
			}
		}
	case ingest.OpRemove:
		p.live = append(p.live, rec.key)
	}
}

// opFate ties the offered operations to the batches that carried them on
// air. Every applied operation is matched to exactly one offered operation
// (adds and moves by their position, which the producer draws at random;
// removes by the site id the pipeline resolved); the earlier operations of
// the same site that the coalescer folded into it share its batch. What is
// left unmatched must be add...remove sequences the coalescer annihilated
// inside one window, or operations the pipeline counted as failed.
type opFate struct {
	batch     []int // offered op -> index of the carrying batch, -1 if none
	applied   int   // ops matched as the applied op itself
	folded    int   // ops folded into a later applied op of the same site
	cancelled int   // ops of add...remove sequences that never reached air
	lost      int   // admitted ops with no batch and no annihilation
}

func matchOps(offered []offeredOp, batches []batchRec) (opFate, error) {
	f := opFate{batch: make([]int, len(offered))}
	byPos := make(map[geom.Point]int, len(offered))
	byKey := make(map[int64][]int)
	for i, o := range offered {
		f.batch[i] = -1
		if o.shed {
			continue
		}
		if o.kind != ingest.OpRemove {
			if _, dup := byPos[o.p]; dup {
				return f, fmt.Errorf("two offered ops at the same position %v", o.p)
			}
			byPos[o.p] = i
		}
		byKey[o.key] = append(byKey[o.key], i)
	}
	keyOfSite := make(map[int]int64) // live site id -> producer key, for added sites
	assigned := make(map[int64]int)  // key -> ops of that key already assigned
	for b, rec := range batches {
		for j := range rec.ids {
			op := rec.ops[j]
			var at int
			switch op.Kind {
			case stream.OpRemove:
				key, ok := keyOfSite[op.ID]
				if !ok {
					key = int64(op.ID)
				}
				ks := byKey[key]
				if len(ks) == 0 || offered[ks[len(ks)-1]].kind != ingest.OpRemove {
					return f, fmt.Errorf("batch %d removes site %d, which no offered op removed", b, op.ID)
				}
				at = ks[len(ks)-1]
			default:
				i, ok := byPos[op.P]
				if !ok {
					return f, fmt.Errorf("batch %d applies an op at %v, which no offered op carried", b, op.P)
				}
				at = i
				if op.Kind == stream.OpAdd {
					keyOfSite[rec.ids[j]] = offered[i].key
				}
			}
			key := offered[at].key
			ks := byKey[key]
			k := assigned[key]
			for ; k < len(ks) && ks[k] <= at; k++ {
				if f.batch[ks[k]] != -1 {
					return f, fmt.Errorf("offered op %d carried twice", ks[k])
				}
				f.batch[ks[k]] = b
				if ks[k] == at {
					f.applied++
				} else {
					f.folded++
				}
			}
			if k == assigned[key] || ks[k-1] != at {
				return f, fmt.Errorf("batch %d applies offered op %d out of order", b, at)
			}
			assigned[key] = k
		}
	}
	for key, ks := range byKey {
		k := assigned[key]
		if k == len(ks) {
			continue
		}
		if k == 0 && offered[ks[0]].kind == ingest.OpAdd && offered[ks[len(ks)-1]].kind == ingest.OpRemove {
			f.cancelled += len(ks)
			continue
		}
		f.lost += len(ks) - k
	}
	return f, nil
}
