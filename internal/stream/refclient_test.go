package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/obs"
	"airindex/internal/wire"
)

// refClient is the frame-by-frame receive path the Client had before its
// skim loop, kept verbatim as a test oracle: every frame goes through
// readHeader (a copying read) and advance, payloads are freshly allocated,
// and nothing is dozed in bulk. Its one change since is slot unwrapping
// (unwrap), which the Client gained at the same time. The identity and fuzz tests run it beside
// the Client over the same bytes and require identical Results, errors and
// stream positions. Metrics and traces are left out: they do not feed the
// Result.
type refClient struct {
	r        *bufio.Reader
	capacity int

	cur     Header
	slot    int // cur.Slot unwrapped, as Client.unwrap does
	started bool

	expectGen uint32
	genPinned bool
	idxBase   int

	loc      core.ClientLocator
	idxCache map[int][]byte
}

func newRefClient(r io.Reader, capacity int) *refClient {
	return &refClient{r: bufio.NewReaderSize(r, 64<<10), capacity: capacity}
}

func (c *refClient) step(string, int, int)             {}
func (c *refClient) finish(geom.Point, *Result, error) {}

// unwrap is Client.unwrap: RFC 1982 serial-number arithmetic against the
// previous frame's slot.
func (c *refClient) unwrap(field uint32) int {
	if !c.started {
		return int(field)
	}
	return c.slot + int(int32(field-c.cur.Slot)) // as unwrapSlot
}

// advance reads one frame; parseIf decides — from the header alone, as a
// real receiver must — whether to download the payload or doze through it.
// The payload is nil when dozed; corrupt reports a downloaded payload that
// failed the checksum (the payload is withheld, the header — which the
// channel never damages — is still returned). Slot gaps left by dropped
// frames are tallied into res.LostSlots.
func (c *refClient) advance(res *Result, parseIf func(h Header, slot int) bool) (Header, []byte, bool, error) {
	h, err := readHeader(c.r)
	if err != nil {
		return Header{}, nil, false, err
	}
	if int(h.PayloadLen) != c.capacity {
		return Header{}, nil, false, fmt.Errorf("stream: frame payload %d, expected capacity %d", h.PayloadLen, c.capacity)
	}
	slot := c.unwrap(h.Slot)
	if c.started && slot > c.slot+1 && res != nil {
		res.LostSlots += slot - c.slot - 1
	}
	c.cur, c.slot, c.started = h, slot, true
	if res != nil {
		res.LastSlot = slot
	}
	if c.genPinned && h.Gen != c.expectGen {
		// The broadcast was hot-swapped under the query. Discard the
		// payload so the stream stays frame-aligned, count the skim, and
		// surface the epoch change instead of letting the caller decode a
		// frame of a program it holds no valid pointers into.
		if _, err := c.r.Discard(int(h.PayloadLen)); err != nil {
			return Header{}, nil, false, err
		}
		if res != nil {
			res.DozedFrames++
		}
		return h, nil, false, ErrStaleGeneration
	}
	if !parseIf(h, slot) {
		if _, err := c.r.Discard(int(h.PayloadLen)); err != nil {
			return Header{}, nil, false, err
		}
		return h, nil, false, nil
	}
	payload := make([]byte, h.PayloadLen)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return Header{}, nil, false, err
	}
	if Checksum(payload) != h.CRC {
		if res != nil {
			res.CorruptFrames++
		}
		return h, nil, true, nil
	}
	return h, payload, false, nil
}

func parseAlways(Header, int) bool { return true }

// seek dozes until the frame at the given absolute slot arrives and parses
// it. Under loss the target frame may never arrive: the first header at a
// later slot reveals the miss; that frame is dozed (not downloaded) and
// returned with ok=false so the caller can resync off its NextIndex
// pointer. The slot the radio was awake for with nothing decodable to show
// is charged to TuneRecover.
func (c *refClient) seek(target int, res *Result) (Header, []byte, bool, bool, error) {
	for {
		h, payload, corrupt, err := c.advance(res, func(_ Header, slot int) bool { return slot == target })
		if err != nil {
			return Header{}, nil, false, false, err
		}
		if c.slot < target {
			res.DozedFrames++
			continue
		}
		if c.slot > target {
			res.DozedFrames++
			res.TuneRecover++
			return h, nil, false, false, nil
		}
		return h, payload, corrupt, true, nil
	}
}

// Query is Client.Query as it was before the skim loop.
func (c *refClient) Query(p geom.Point) (Result, error) {
	var res Result
	err := c.queryLoop(p, &res, 0, false)
	return res, err
}

// queryLoop is Client.queryLoop as it was before the skim loop.
func (c *refClient) queryLoop(p geom.Point, res *Result, skip int, resume bool) error {
	if !resume {
		c.genPinned = false
	}
	for restart := 0; ; restart++ {
		err := c.queryOnce(p, res, restart, skip, resume && restart == 0)
		if err == nil {
			c.finish(p, res, nil)
			return nil
		}
		if !errors.Is(err, ErrStaleGeneration) {
			c.finish(p, res, err)
			return err
		}
		// Epoch restart: the accumulated index cache, bucket id, and any
		// partial download describe the old program. The radio was awake
		// when the revealing frame arrived, so the slot is charged to
		// recovery; latency keeps running from the original probe.
		c.genPinned = false
		res.EpochRestarts++
		res.Recoveries++
		res.TuneRecover++
		res.Data = res.Data[:0]
		c.step(obs.StepRestart, res.LastSlot, res.EpochRestarts)
		if res.EpochRestarts >= maxEpochRestarts {
			err := fmt.Errorf("stream: query abandoned after %d epoch restarts (broadcast reconfiguring faster than queries complete)", maxEpochRestarts)
			c.finish(p, res, err)
			return err
		}
	}
}

// Probe is Client.Probe as it was before the skim loop.
func (c *refClient) Probe(res *Result) error {
	c.genPinned = false
	probe, _, _, err := c.advance(res, parseAlways)
	if err != nil {
		return err
	}
	c.expectGen, c.genPinned = probe.Gen, true
	res.Generation = probe.Gen
	res.TuneProbe++
	if res.TuneProbe == 1 {
		res.FirstSlot = c.slot
	}
	c.step(obs.StepProbe, c.slot, int(probe.NextIndex))
	c.idxBase = c.slot + int(probe.NextIndex)
	return nil
}

// fetchIndexPacket is Client.fetchIndexPacket as it was before the skim loop.
func (c *refClient) fetchIndexPacket(res *Result, off int) ([]byte, error) {
	for attempt := 0; attempt < maxIndexAttempts; attempt++ {
		target := c.idxBase + off
		if c.slot >= target {
			// Passed: jump to the copy after the current frame.
			c.idxBase = c.slot + int(c.cur.NextIndex)
			target = c.idxBase + off
		}
		h, payload, corrupt, ok, err := c.seek(target, res)
		if err != nil {
			return nil, err
		}
		if !ok {
			// The target frame was dropped on the air: resync at the
			// next index copy the later frame points to.
			res.Recoveries++
			c.step(obs.StepRecover, c.slot, res.Recoveries)
			c.idxBase = c.slot + int(h.NextIndex)
			continue
		}
		if corrupt || h.Kind != KindIndex || int(h.Seq) != off {
			// Downloaded but unusable — bit corruption, or a copy
			// shorter than off packets (corrupt offset arithmetic).
			// Pay the wasted download and resync at the next copy.
			res.TuneRecover++
			res.Recoveries++
			c.step(obs.StepRecover, c.slot, res.Recoveries)
			c.idxBase = c.slot + int(h.NextIndex)
			continue
		}
		res.TuneIndex++
		c.step(obs.StepIndex, c.slot, off)
		return payload, nil
	}
	return nil, fmt.Errorf("stream: index packet %d unreachable after %d attempts", off, maxIndexAttempts)
}

// FetchIndexPackets is Client.FetchIndexPackets as it was before the skim loop.
func (c *refClient) FetchIndexPackets(res *Result, lo, hi int) ([][]byte, error) {
	if !c.genPinned {
		return nil, fmt.Errorf("stream: FetchIndexPackets without a preceding Probe")
	}
	out := make([][]byte, 0, hi-lo)
	for off := lo; off < hi; off++ {
		pkt, err := c.fetchIndexPacket(res, off)
		if err != nil {
			return nil, err
		}
		out = append(out, pkt)
	}
	return out, nil
}

// queryOnce is Client.queryOnce as it was before the skim loop.
func (c *refClient) queryOnce(p geom.Point, res *Result, restart, skip int, resume bool) error {
	if !resume {
		// Backoff after an epoch restart: doze restart frames before
		// re-probing, so consecutive restarts spread out instead of hammering
		// the stream the instant each new generation appears.
		for i := 0; i < restart; i++ {
			if _, _, _, err := c.advance(res, func(Header, int) bool { return false }); err != nil {
				return err
			}
			res.DozedFrames++
		}
		if err := c.Probe(res); err != nil {
			return err
		}
	}

	bucket, err := c.LocateShifted(p, skip, res)
	if err != nil {
		return err
	}
	res.Bucket = bucket
	return c.fetchBucket(bucket, res)
}

// LocateShifted is Client.LocateShifted as it was before the skim loop.
func (c *refClient) LocateShifted(p geom.Point, skip int, res *Result) (int, error) {
	if !c.genPinned {
		return 0, fmt.Errorf("stream: LocateShifted without a preceding Probe")
	}
	// Feed the D-tree byte decoder from the live stream. The provider
	// caches parsed packets (client memory); the cache and the decoder
	// scratch live on the client, reused across queries.
	if c.idxCache == nil {
		c.idxCache = make(map[int][]byte, 8)
	} else {
		clear(c.idxCache)
	}
	get := func(k int) ([]byte, error) {
		if pkt, ok := c.idxCache[k]; ok {
			return pkt, nil
		}
		payload, err := c.fetchIndexPacket(res, skip+k)
		if err != nil {
			return nil, err
		}
		c.idxCache[k] = payload
		return payload, nil
	}
	bucket, _, err := c.loc.Locate(get, c.capacity, p)
	return bucket, err
}

// FetchBucket is Client.FetchBucket as it was before the skim loop.
func (c *refClient) FetchBucket(bucket int, res *Result) ([]byte, error) {
	if !c.genPinned {
		return nil, fmt.Errorf("stream: FetchBucket without a preceding Probe")
	}
	res.Data = res.Data[:0]
	if err := c.fetchBucket(bucket, res); err != nil {
		return nil, err
	}
	return append([]byte(nil), res.Data...), nil
}

// fetchBucket is Client.fetchBucket as it was before the skim loop.
func (c *refClient) fetchBucket(bucket int, res *Result) error {
	expect := wire.DTreeParams(c.capacity).DataBucketPackets()
	collected, attempts := 0, 0
	wants := func(h Header, _ int) bool {
		return h.Kind == KindData && h.Bucket() == bucket &&
			(collected > 0 || h.BucketPacket() == 0)
	}
	// retry discards a broken run and waits for the bucket to come around
	// again; it reports whether the attempt budget allows another pass.
	retry := func() bool {
		collected = 0
		res.Data = res.Data[:0]
		res.Recoveries++
		c.step(obs.StepRecover, res.LastSlot, res.Recoveries)
		attempts++
		return attempts < maxBucketAttempts
	}
	for {
		h, payload, corrupt, err := c.advance(res, wants)
		if err != nil {
			return err
		}
		if payload == nil && !corrupt {
			res.DozedFrames++
			if collected > 0 {
				// A foreign frame interrupted the bucket's contiguous
				// run: the remaining packets were lost on the air. The
				// radio was awake expecting them.
				res.TuneRecover++
				if !retry() {
					break
				}
			}
			continue
		}
		if corrupt {
			res.TuneRecover++
			if !retry() {
				break
			}
			continue
		}
		if collected > 0 && h.BucketPacket() != collected {
			// A gap inside the run (a dropped packet of our own bucket).
			res.TuneRecover++
			if !retry() {
				break
			}
			if h.BucketPacket() == 0 {
				// The mismatch was the bucket starting over (a whole cycle
				// of losses): the downloaded packet begins a fresh run.
				res.TuneData++
				c.step(obs.StepData, c.slot, 0)
				res.Data = append(res.Data, payload...)
				collected = 1
			}
			continue
		}
		res.TuneData++
		c.step(obs.StepData, c.slot, h.BucketPacket())
		res.Data = append(res.Data, payload...)
		collected++
		if collected == expect {
			res.Latency = float64(c.slot + 1 - res.FirstSlot)
			c.step(obs.StepAnswer, c.slot, bucket)
			return nil
		}
	}
	return fmt.Errorf("stream: bucket %d not retrieved intact after %d attempts", bucket, maxBucketAttempts)
}
