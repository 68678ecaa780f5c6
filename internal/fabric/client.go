package fabric

import (
	"errors"
	"fmt"

	"airindex/internal/geom"
	"airindex/internal/obs"
	"airindex/internal/stream"
)

// maxRouteAttempts bounds how many times one fabric query may restart its
// directory phase after a hot swap lands mid-read — the cross-channel
// analogue of the stream client's epoch-restart bound.
const maxRouteAttempts = 8

// Client consumes a live sharded fabric: one stream.Client per channel,
// dialed lazily and kept open, with the channel directory read off the air
// on every query — the client holds no out-of-band routing state, exactly
// as a mobile receiver holds none. Queries stay tuned to the channel that
// answered last (a sticky radio), so workloads with locality hop rarely.
// Not safe for concurrent use, like stream.Client.
type Client struct {
	capacity int
	dial     func(ch int) (*stream.Client, error)
	clients  []*stream.Client
	entry    int

	// Adjacency is read by nothing: receivers step over a region-adjacency
	// appendix on their own (stream.Client.LocateShifted). It stays only
	// because the perfbench harness still assigns it, and goes when that
	// assignment does (ROADMAP item 3).
	Adjacency bool

	// Metrics and Traces, when set before the first query, are attached to
	// every per-channel stream client as it is dialed; they record per-leg
	// observations (the answering leg's trace carries the final answer).
	Metrics *stream.ClientMetrics
	Traces  *obs.TraceLog
}

// Result is the outcome of one fabric query, with honest accounting
// across hops: latency sums the slots the radio spent on each leg, tuning
// splits the parsed packets by protocol phase, and the recovery counters
// accumulate across legs. A hop is charged a fresh probe on the target
// channel plus the directory read already spent on the entry channel —
// the same discipline epoch restarts use within one channel.
type Result struct {
	Shard  int // channel that answered
	Bucket int // shard-local bucket id
	Global int // global data-instance id (the payload stamp; the bucket on a lone channel)
	Hops   int
	Data   []byte

	Latency       float64
	TuneProbe     int
	TuneDirectory int
	TuneIndex     int
	TuneData      int
	TuneRecover   int

	DozedFrames   int
	LostSlots     int
	CorruptFrames int
	Recoveries    int
	EpochRestarts int

	Generation uint32 // generation of the answering shard's program
}

// TotalTuning returns the active-radio packet count across phases,
// including recovery.
func (r Result) TotalTuning() int {
	return r.TuneProbe + r.TuneDirectory + r.TuneIndex + r.TuneData + r.TuneRecover
}

// NewClient builds a fabric client over TCP: addrs[i] is channel i's
// broadcast address.
func NewClient(addrs []string, capacity int) *Client {
	return NewClientFunc(len(addrs), capacity, func(ch int) (*stream.Client, error) {
		return stream.Dial(addrs[ch], capacity)
	})
}

// NewClientFunc builds a fabric client over an arbitrary per-channel
// transport (net.Pipe in tests).
func NewClientFunc(channels, capacity int, dial func(ch int) (*stream.Client, error)) *Client {
	return &Client{
		capacity: capacity,
		dial:     dial,
		clients:  make([]*stream.Client, channels),
	}
}

// Channels returns the number of channels the client can tune to.
func (c *Client) Channels() int { return len(c.clients) }

// Close closes every dialed channel.
func (c *Client) Close() error {
	var first error
	for _, sc := range c.clients {
		if sc != nil {
			if err := sc.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// client returns the stream client for a channel, dialing on first use.
func (c *Client) client(ch int) (*stream.Client, error) {
	if ch < 0 || ch >= len(c.clients) {
		return nil, fmt.Errorf("fabric: channel %d of %d", ch, len(c.clients))
	}
	if c.clients[ch] == nil {
		sc, err := c.dial(ch)
		if err != nil {
			return nil, fmt.Errorf("fabric: dial channel %d: %w", ch, err)
		}
		sc.Metrics = c.Metrics
		sc.Traces = c.Traces
		c.clients[ch] = sc
	}
	return c.clients[ch], nil
}

// QueryFrom resolves the data instance for p entering on a specific
// channel: probe, read the replicated channel directory at the head of the
// next index copy, hop to the owning shard if it differs, then run the
// standard access protocol against that shard's D-tree (whose offsets sit
// right behind the directory prefix and any adjacency appendix, which the
// stream client steps over itself). The directory phase is retried from
// a fresh probe when a hot swap lands under it. A lone channel carries no
// directory: the descent starts at packet 0, exactly the single channel's
// access protocol.
func (c *Client) QueryFrom(p geom.Point, entry int) (Result, error) {
	var fres Result
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		sc, err := c.client(entry)
		if err != nil {
			return fres, err
		}
		var leg stream.Result
		if err := sc.Probe(&leg); err != nil {
			c.mergeLeg(&fres, &leg, 0)
			return fres, err
		}
		d, dirTune, target := 0, 0, entry
		if len(c.clients) > 1 {
			dir, n, err := c.readDirectory(sc, &leg)
			if err != nil {
				if stale := c.retryRouting(&fres, &leg, leg.TuneIndex, err); stale {
					continue
				}
				return fres, err
			}
			d, dirTune, target = n, leg.TuneIndex, dir.Route(p)
		}

		if target == entry {
			// The entry channel owns the point: continue the descent in the
			// same index copy, right behind the directory.
			err := sc.QueryResume(p, d, &leg)
			c.mergeLeg(&fres, &leg, dirTune)
			fres.Latency += leg.Latency
			if err != nil {
				return fres, err
			}
		} else {
			// Hop: close out the entry leg (its probe and directory read
			// stay charged) and run a full query on the owning channel.
			fres.Hops++
			c.mergeLeg(&fres, &leg, dirTune)
			fres.Latency += float64(leg.LastSlot + 1 - leg.FirstSlot)
			tc, err := c.client(target)
			if err != nil {
				return fres, err
			}
			var hop stream.Result
			err = tc.QueryShifted(p, d, &hop)
			c.mergeLeg(&fres, &hop, 0)
			fres.Latency += hop.Latency
			if err != nil {
				return fres, err
			}
			leg = hop
		}
		fres.Shard = target
		fres.Bucket = leg.Bucket
		fres.Generation = leg.Generation
		fres.Data = leg.Data
		// A lone channel stamps no global ids: its bucket is the id.
		fres.Global = leg.Bucket
		if len(c.clients) > 1 {
			if fres.Global, err = GlobalIDFromData(leg.Data); err != nil {
				return fres, err
			}
		}
		c.entry = target
		return fres, nil
	}
	return fres, fmt.Errorf("fabric: routing abandoned after %d directory restarts (fabric reconfiguring faster than queries complete)", maxRouteAttempts)
}

// readDirectory reads the channel directory from the head of the index
// copy the probe on sc pinned, returning it with its packet count: packet 0
// announces the prefix length, the rest of the prefix follows in the same
// copy. A directory routing over a different channel count than the client
// holds is refused.
func (c *Client) readDirectory(sc *stream.Client, leg *stream.Result) (*Directory, int, error) {
	pkts, err := sc.FetchIndexPackets(leg, 0, 1)
	if err != nil {
		return nil, 0, err
	}
	d, err := DirectoryPacketCount(pkts[0])
	if err != nil {
		return nil, 0, err
	}
	if d > 1 {
		rest, err := sc.FetchIndexPackets(leg, 1, d)
		if err != nil {
			return nil, 0, err
		}
		pkts = append(pkts, rest...)
	}
	dir, err := DecodeDirectory(pkts)
	if err == nil {
		err = c.checkDirectory(dir)
	}
	return dir, len(pkts), err
}

// checkDirectory rejects a directory that routes over a different number
// of channels than the client can tune to: its routes would name channels
// the client does not hold, or leave some of its channels unreachable.
func (c *Client) checkDirectory(dir *Directory) error {
	if dir.S != len(c.clients) {
		return fmt.Errorf("fabric: directory announces %d channels, client holds %d", dir.S, len(c.clients))
	}
	return nil
}

// retryRouting folds a failed leg into the accumulated result, dirTune of
// its index tuning spent on the directory, and reports whether it is
// retryable (a hot swap revealed mid-read).
func (c *Client) retryRouting(fres *Result, leg *stream.Result, dirTune int, err error) bool {
	c.mergeLeg(fres, leg, dirTune)
	if !errors.Is(err, stream.ErrStaleGeneration) {
		return false
	}
	if leg.FirstSlot <= leg.LastSlot {
		fres.Latency += float64(leg.LastSlot + 1 - leg.FirstSlot)
	}
	fres.EpochRestarts++
	fres.Recoveries++
	fres.TuneRecover++
	return true
}

// mergeLeg folds one channel leg's counters into the fabric result;
// dirTune of the leg's TuneIndex is re-attributed to the directory phase.
func (c *Client) mergeLeg(fres *Result, leg *stream.Result, dirTune int) {
	fres.TuneProbe += leg.TuneProbe
	fres.TuneDirectory += dirTune
	fres.TuneIndex += leg.TuneIndex - dirTune
	fres.TuneData += leg.TuneData
	fres.TuneRecover += leg.TuneRecover
	fres.DozedFrames += leg.DozedFrames
	fres.LostSlots += leg.LostSlots
	fres.CorruptFrames += leg.CorruptFrames
	fres.Recoveries += leg.Recoveries
	fres.EpochRestarts += leg.EpochRestarts
}
