package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/obs"
	"airindex/internal/wire"
)

// Client consumes a live broadcast stream and answers location-dependent
// queries with the paper's access protocol. "Dozing" over a byte stream
// means reading a frame's header and discarding its payload unparsed; the
// tuning counters track only fully parsed (downloaded) packets, mirroring
// the paper's energy model. Headers are parsed in place from the read
// buffer, and a run of unwanted frames already buffered is dozed through
// with one discard (skim), so dozing costs no allocation and no copy.
//
// The client survives unreliable channels: corruption is detected by the
// frame checksum, loss by gaps in the strictly-increasing slot numbers,
// and both are recovered by the paper's own mechanism — re-probe, jump to
// the next index copy via the NextIndex pointer every frame carries, and
// retry bucket retrieval on the next cycle — counting the extra tuning and
// latency instead of failing.
type Client struct {
	r        *bufio.Reader
	conn     net.Conn // nil when constructed over a plain reader
	capacity int

	// Metrics, when set, accumulates per-query latency/tuning distributions
	// and recovery counters; one set may be shared across clients. Traces,
	// when set, receives one Probe→Answer trace per completed query. Both
	// must be assigned before the first Query and are optional.
	Metrics *ClientMetrics
	Traces  *obs.TraceLog

	cur     Header // last frame's header
	slot    int    // cur.Slot unwrapped: serial-number arithmetic across 2^32
	started bool
	steps   []obs.TraceStep // current query's trace, reused across queries

	// Epoch pinning: a query pins the generation it probed and every
	// subsequent frame must match, so a hot program swap is detected the
	// moment the first new-generation frame is observed — before any stale
	// index pointer can be dereferenced into a wrong answer.
	expectGen uint32
	genPinned bool

	// idxBase is the absolute slot of the index-copy start the pinned
	// session is consuming, established by Probe and advanced by the
	// recovery logic whenever an offset has flown past or been lost.
	idxBase int

	// Per-query decode scratch, reused across queries: the byte decoder's
	// trace/seen/read buffers and the parsed-packet cache.
	loc      core.ClientLocator
	idxCache map[int][]byte
}

// Attempt bounds: how many index copies (resp. broadcast cycles) a query
// may burn recovering one index packet (resp. its data bucket) before the
// channel is declared hopeless. At 10% loss a retry fails with probability
// well under 1/2, so 16 attempts leave a vanishing residual.
// maxEpochRestarts separately bounds how many whole-query restarts a
// reconfiguring broadcast may force before the client gives up; each swap
// bumps the generation once, so hitting the bound means the server is
// swapping faster than a query completes.
const (
	maxIndexAttempts  = 16
	maxBucketAttempts = 16
	maxEpochRestarts  = 8
)

// maxTraceSteps bounds one query's trace so a pathological channel cannot
// grow it without limit; the summary counters in the trace stay exact.
const maxTraceSteps = 128

// step appends one trace event for the current query; a no-op unless the
// client has a trace log attached.
func (c *Client) step(kind string, slot, info int) {
	if c.Traces == nil || len(c.steps) >= maxTraceSteps {
		return
	}
	c.steps = append(c.steps, obs.TraceStep{Kind: kind, Slot: slot, Info: info})
}

// finish folds a completed (or failed) query into the attached metrics and
// trace log.
func (c *Client) finish(p geom.Point, res *Result, err error) {
	if c.Metrics != nil {
		if err != nil {
			c.Metrics.QueryErrors.Inc()
		} else {
			c.Metrics.observe(res)
		}
	}
	if c.Traces != nil {
		tr := obs.QueryTrace{
			X: p.X, Y: p.Y,
			Bucket:        res.Bucket,
			Generation:    res.Generation,
			Latency:       res.Latency,
			Tuning:        res.TotalTuning(),
			EpochRestarts: res.EpochRestarts,
			Recoveries:    res.Recoveries,
			Steps:         append([]obs.TraceStep(nil), c.steps...),
		}
		if err != nil {
			tr.Err = err.Error()
		}
		c.Traces.Record(tr)
	}
}

// ErrStaleGeneration reports that a frame from a different broadcast
// generation arrived while a query had its epoch pinned: the index layout
// and bucket numbering the query accumulated belong to a dead program.
// Query handles it internally (epoch restarts); callers driving the
// protocol by hand through Probe/FetchIndexPackets must re-probe when they
// see it.
var ErrStaleGeneration = errors.New("stream: broadcast generation changed mid-query")

// Result is the outcome of one streamed query.
type Result struct {
	Bucket  int
	Data    []byte
	Latency float64 // slots from query issue to the final frame observed

	TuneProbe   int
	TuneIndex   int
	TuneData    int
	TuneRecover int // active-radio slots wasted on loss/corruption recovery
	DozedFrames int // frames skimmed (header only) while waiting

	LostSlots     int // slot-number gaps observed (frames the channel dropped)
	CorruptFrames int // downloaded frames whose payload failed the checksum
	Recoveries    int // recovery actions: index-copy resyncs + bucket retries + epoch restarts

	Generation    uint32 // broadcast generation the answer was resolved against
	EpochRestarts int    // whole-query restarts forced by mid-query program swaps

	FirstSlot int // absolute slot of the initial probe
	LastSlot  int // absolute slot of the final frame observed
}

// TotalTuning returns the active-radio packet count across protocol steps,
// including slots burned on recovery.
func (r Result) TotalTuning() int { return r.TuneProbe + r.TuneIndex + r.TuneData + r.TuneRecover }

// Dial connects to a broadcast server over TCP.
func Dial(addr string, capacity int) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn, capacity)
	c.conn = conn
	return c, nil
}

// rxBufSize is the client's receive span: the read-buffer size, so one
// read syscall per ~256 KB of broadcast, and the most one skim can doze
// through. It matches the transmit span (txBufSize).
const rxBufSize = 256 << 10

// NewClient wraps any frame stream (e.g. one end of net.Pipe in tests).
// The read buffer holds at least one whole frame, so payloads can be
// checked in place.
func NewClient(r io.Reader, capacity int) *Client {
	return &Client{r: bufio.NewReaderSize(r, max(rxBufSize, headerSize+capacity)), capacity: capacity}
}

// Close closes the underlying connection, if any.
func (c *Client) Close() error {
	if c.conn != nil {
		return c.conn.Close()
	}
	return nil
}

// unwrap maps a frame's 32-bit slot field to the absolute slot it stands
// for: the slot numbering is strictly increasing on the air but the field
// wraps every 2^32 slots (minutes at full speed), so each slot is taken as
// the nearest one to the previous frame's (RFC 1982 serial-number
// arithmetic). Every slot the client compares, subtracts or reports is an
// unwrapped one.
func (c *Client) unwrap(field uint32) int {
	if !c.started {
		return int(field)
	}
	return unwrapSlot(c.slot, c.cur.Slot, field)
}

// unwrapSlot returns the slot the field stands for, given the previous
// frame's unwrapped slot and its field: the previous slot plus the field
// difference read as a signed 32-bit number.
func unwrapSlot(prev int, prevField, field uint32) int {
	return prev + int(int32(field-prevField))
}

// advance reads one frame; parseIf decides — from the header and its
// unwrapped slot alone, as a real receiver must — whether to download the
// payload or doze through it.
// The payload is nil when dozed; a downloaded payload aliases the read
// buffer and is valid only until the next read from the stream. corrupt
// reports a downloaded payload that failed the checksum (the payload is
// withheld, the header — which the channel never damages — is still
// returned). Slot gaps left by dropped frames are tallied into
// res.LostSlots. Whatever the outcome, advance consumes exactly the bytes
// a copying reader would have: a whole frame, or a rejected header, or the
// fragment the stream ended on.
func (c *Client) advance(res *Result, parseIf func(h Header, slot int) bool) (Header, []byte, bool, error) {
	b, err := c.r.Peek(headerSize)
	if err != nil {
		c.r.Discard(len(b)) //nolint:errcheck // buffered bytes
		return Header{}, nil, false, shortRead(len(b), err)
	}
	h, err := parseHeader(b)
	c.r.Discard(headerSize) //nolint:errcheck // buffered bytes
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
	payload, err := c.r.Peek(int(h.PayloadLen))
	c.r.Discard(len(payload)) //nolint:errcheck // buffered bytes
	if err != nil {
		return Header{}, nil, false, shortRead(len(payload), err)
	}
	if Checksum(payload) != h.CRC {
		if res != nil {
			res.CorruptFrames++
		}
		return h, nil, true, nil
	}
	return h, payload, false, nil
}

// shortRead turns the error of a Peek that returned only got bytes into
// the one io.ReadFull reports for the same stream: io.EOF only when nothing
// at all was left.
func shortRead(got int, err error) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// dozeRule says which frames a protocol step may doze through without
// looking at more than the header.
type dozeRule struct {
	kind   dozeKind
	target int // dozeBefore: the first slot not dozed
	bucket int // dozeToBucket: the bucket whose first packet ends the doze
}

type dozeKind uint8

const (
	dozeAll      dozeKind = iota // any frame (the epoch backoff)
	dozeBefore                   // frames before slot target (seek)
	dozeToBucket                 // all but bucket's first packet (fetchBucket)
)

// dozes applies the rule to the whole frame f at the unwrapped slot.
func (r dozeRule) dozes(f []byte, slot int) bool {
	switch r.kind {
	case dozeBefore:
		return slot < r.target
	case dozeToBucket:
		seq := binary.LittleEndian.Uint32(f[8:])
		return f[2] != KindData || int(seq>>8) != r.bucket || seq&0xff != 0
	}
	return true
}

// skim dozes through the frames already whole in the read buffer that the
// rule lets it doze, at most limit of them, with one Discard for the lot.
// The headers are checked in place: each frame gets every check and count
// advance gives a dozed frame — magic and version, payload length, the
// generation pin, slot gaps into res.LostSlots, res.DozedFrames and
// res.LastSlot — and only the last dozed header is decoded, into c.cur.
// skim stops, without consuming it, at the first frame advance must handle
// instead: a bad header, a foreign payload size, a new generation under a
// pinned epoch, a frame the rule keeps, or one not yet wholly buffered. It
// returns how many frames it dozed.
func (c *Client) skim(res *Result, limit int, rule dozeRule) int {
	buf, _ := c.r.Peek(c.r.Buffered())
	size := headerSize + c.capacity
	field, slot, started := c.cur.Slot, c.slot, c.started
	n, off := 0, 0
	for ; n < limit && len(buf)-off >= size; n, off = n+1, off+size {
		f := buf[off : off+size]
		if binary.LittleEndian.Uint16(f[0:]) != frameMagic || f[3] != frameVersion ||
			int(binary.LittleEndian.Uint16(f[12:])) != c.capacity ||
			(c.genPinned && binary.LittleEndian.Uint32(f[16:]) != c.expectGen) {
			break
		}
		next := binary.LittleEndian.Uint32(f[4:])
		at := int(next)
		if started {
			at = unwrapSlot(slot, field, next)
		}
		if !rule.dozes(f, at) {
			break
		}
		if started && at > slot+1 {
			res.LostSlots += at - slot - 1
		}
		field, slot, started = next, at, true
	}
	if n > 0 {
		c.cur, _ = parseHeader(buf[off-size:]) // checked above
		c.slot, c.started = slot, true
		res.LastSlot = slot
		res.DozedFrames += n
		c.r.Discard(off) //nolint:errcheck // buffered bytes
	}
	return n
}

func always(Header, int) bool { return true }
func never(Header, int) bool  { return false }

// seek dozes until the frame at the given absolute slot arrives and parses
// it. Under loss the target frame may never arrive: the first header at a
// later slot reveals the miss; that frame is dozed (not downloaded) and
// returned with ok=false so the caller can resync off its NextIndex
// pointer. The slot the radio was awake for with nothing decodable to show
// is charged to TuneRecover.
func (c *Client) seek(target int, res *Result) (Header, []byte, bool, bool, error) {
	for {
		c.skim(res, math.MaxInt, dozeRule{kind: dozeBefore, target: target})
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

// Query resolves the data instance for point p from the live stream. When
// a hot program swap lands mid-query, the query abandons every stale index
// pointer, backs off briefly, and re-issues itself against the new
// generation — up to maxEpochRestarts times — accumulating the wasted
// tuning and latency into the same Result rather than ever returning an
// answer resolved against a dead program.
func (c *Client) Query(p geom.Point) (Result, error) {
	var res Result
	err := c.queryLoop(p, &res, 0, false)
	return res, err
}

// QueryShifted is Query against a program whose every index copy begins
// with skip foreign packets (the fabric's channel directory): the D-tree
// root sits at offset skip, and every tree offset is shifted by skip on the
// wire. Counters accumulate into *res — a fabric client carries partial
// accounting from the entry channel into the shard query.
func (c *Client) QueryShifted(p geom.Point, skip int, res *Result) error {
	return c.queryLoop(p, res, skip, false)
}

// QueryResume is QueryShifted continuing the session pinned by an earlier
// Probe on this client, without a fresh probe: the caller has just read the
// directory prefix of the current index copy, and the tree descent starts
// right behind it in the same copy. A mid-resume swap falls back to a full
// re-probe (epoch restart), exactly like Query.
func (c *Client) QueryResume(p geom.Point, skip int, res *Result) error {
	return c.queryLoop(p, res, skip, true)
}

// queryLoop wraps queryOnce in the epoch-restart loop shared by every
// query entry point.
func (c *Client) queryLoop(p geom.Point, res *Result, skip int, resume bool) error {
	if !resume {
		c.genPinned = false
		c.steps = c.steps[:0]
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

// Probe parses the next frame to pin the broadcast generation this session
// resolves against and to position the client at the upcoming index copy.
// Only the header matters, so a corrupt payload does not hurt — the energy
// was spent either way. Exported for the fabric client, which reads the
// channel directory by hand between Probe and the tree descent.
func (c *Client) Probe(res *Result) error {
	c.genPinned = false
	if res.TuneProbe == 0 {
		// A brand-new accounting session starts a fresh trace; re-probes
		// within a session (epoch restarts, hops sharing the Result) append.
		c.steps = c.steps[:0]
	}
	probe, _, _, err := c.advance(res, always)
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

// fetchIndexPacket downloads index-copy offset off from the pinned session
// with the paper's recovery discipline: an offset that has already flown by
// — or that the channel ate — is fetched from the next index copy, which
// every frame points to.
func (c *Client) fetchIndexPacket(res *Result, off int) ([]byte, error) {
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
		// The payload aliases the read buffer; callers keep index packets.
		return append([]byte(nil), payload...), nil
	}
	return nil, fmt.Errorf("stream: index packet %d unreachable after %d attempts", off, maxIndexAttempts)
}

// FetchIndexPackets downloads index-copy offsets [lo, hi) in order from the
// session pinned by a preceding Probe, with the standard loss recovery. A
// hot swap surfaces as ErrStaleGeneration; the caller must then re-Probe.
func (c *Client) FetchIndexPackets(res *Result, lo, hi int) ([][]byte, error) {
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

// queryOnce runs one full access-protocol pass (probe, index search, bucket
// download) against a single pinned generation, accumulating counters into
// res. It returns ErrStaleGeneration the moment any frame reveals a swap.
// The first skip packets of every index copy are skipped as foreign (the
// fabric's channel directory); resume continues an already-probed session
// instead of issuing a fresh probe.
func (c *Client) queryOnce(p geom.Point, res *Result, restart, skip int, resume bool) error {
	if !resume {
		// Backoff after an epoch restart: doze restart frames before
		// re-probing, so consecutive restarts spread out instead of hammering
		// the stream the instant each new generation appears.
		for left := restart; left > 0; {
			if left -= c.skim(res, left, dozeRule{kind: dozeAll}); left == 0 {
				break
			}
			if _, _, _, err := c.advance(res, never); err != nil {
				return err
			}
			res.DozedFrames++
			left--
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

// LocateShifted runs the index-search phase only — the D-tree descent for p
// over the live stream, with the first skip packets of every index copy
// treated as foreign — returning the located data bucket without
// downloading it. The session must be pinned by a preceding Probe; a hot
// swap surfaces as ErrStaleGeneration. Continuous clients use it to
// re-descend after a boundary crossing without re-downloading answer
// buckets they already hold.
func (c *Client) LocateShifted(p geom.Point, skip int, res *Result) (int, error) {
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

// FetchBucket downloads one data bucket from the pinned session with the
// standard loss recovery, returning its payload as a fresh slice (res.Data
// is used as scratch and holds the same bytes on success).
func (c *Client) FetchBucket(bucket int, res *Result) ([]byte, error) {
	if !c.genPinned {
		return nil, fmt.Errorf("stream: FetchBucket without a preceding Probe")
	}
	res.Data = res.Data[:0]
	if err := c.fetchBucket(bucket, res); err != nil {
		return nil, err
	}
	return append([]byte(nil), res.Data...), nil
}

// fetchBucket is the data-retrieval phase: doze until the bucket's first
// packet, download the contiguous bucket into res.Data. The packets-per-
// bucket count follows from the capacity (the data instance size is a
// system parameter, Table 2), so the client knows when the bucket is
// complete; an incomplete or damaged run is discarded and retried on the
// next cycle.
func (c *Client) fetchBucket(bucket int, res *Result) error {
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
		if collected == 0 {
			// Doze through everything buffered ahead of the bucket start.
			c.skim(res, math.MaxInt, dozeRule{kind: dozeToBucket, bucket: bucket})
		}
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
