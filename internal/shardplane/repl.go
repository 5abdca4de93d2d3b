package shardplane

import (
	"io"
	"sync"
	"sync/atomic"

	"keysearch/internal/frame"
	"keysearch/internal/jobs"
	"keysearch/internal/telemetry"
)

// The replication stream carries frame.Frames — the WAL's own layout —
// with its own type space and a larger payload cap. A torn frame (the
// link was severed) is told from a corrupt one so the follower can report
// which invariant broke; either way the stream is refused, never
// resynchronized by scanning.

// Frame types.
const (
	// FrameSnapshot carries a full checksummed store snapshot; Seq is
	// the WAL watermark it covers. Always the sender's first frame, and
	// re-sent whenever the follower has fallen behind the live tail.
	FrameSnapshot byte = 1
	// FrameRecord carries one WAL record: payload[0] is the record
	// type, the rest the record payload. Seq is the WAL sequence.
	FrameRecord byte = 2
	// FrameAck flows follower→sender: Seq is the follower's durable
	// watermark. Payload is empty.
	FrameAck byte = 3
)

// streamFormat bounds one frame; snapshots dominate, and a control
// plane snapshot beyond 64 MiB means something upstream went wrong.
var streamFormat = frame.Format{Types: FrameAck, MaxPayload: 1 << 26}

func writeFrame(w io.Writer, typ byte, seq uint64, payload []byte) error {
	_, err := w.Write(frame.Append(nil, typ, seq, payload))
	return err
}

// replTelemetry caches the replication metric handles; all nil when
// telemetry is disabled.
type replTelemetry struct {
	frames    *telemetry.Counter
	bytes     *telemetry.Counter
	snapshots *telemetry.Counter
	acked     *telemetry.Gauge
}

func newReplTelemetry(reg *telemetry.Registry, shard string) *replTelemetry {
	rt := &replTelemetry{}
	if reg == nil {
		return rt
	}
	rt.frames = reg.Counter(telemetry.MetricShardReplFrames)
	rt.bytes = reg.Counter(telemetry.MetricShardReplBytes)
	rt.snapshots = reg.Counter(telemetry.MetricShardReplSnapshots)
	rt.acked = reg.Gauge(telemetry.PerNode(telemetry.MetricShardReplAcked, shard))
	return rt
}

// Sender streams one store's WAL to a follower: a full snapshot to
// establish the watermark, then the live tail from the store's append
// hook, re-snapshotting whenever the follower falls behind the feed's
// bounded buffer. Acks flow back on the same connection and update the
// acked watermark — the shard's measure of how much a promotion could
// lose.
type Sender struct {
	store *jobs.Store
	feed  *Feed
	tel   *replTelemetry
	acked atomic.Uint64
}

// NewSender wires a sender to a store's feed. The feed must be
// attached to the store as its OnAppend hook (Shard does this).
func NewSender(store *jobs.Store, feed *Feed, reg *telemetry.Registry, shard string) *Sender {
	return &Sender{store: store, feed: feed, tel: newReplTelemetry(reg, shard)}
}

// Acked returns the follower's last acknowledged watermark.
func (s *Sender) Acked() uint64 { return s.acked.Load() }

// Serve replicates over one connection until the feed closes (clean
// shutdown, returns nil) or the link fails. All I/O happens outside
// the feed lock.
func (s *Sender) Serve(conn io.ReadWriteCloser) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	defer conn.Close()

	// Ack reader: the only reads on the connection. A read error means
	// the link is gone; raise the stop flag so the main loop's blocking
	// next() wakes and Serve unwinds.
	stop := new(bool)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer s.feed.abort(stop)
		for {
			fr, err := frame.Read(conn, streamFormat)
			if err != nil {
				return
			}
			if fr.Type == FrameAck {
				s.acked.Store(fr.Seq)
				s.tel.acked.Set(float64(fr.Seq))
			}
		}
	}()

	for {
		data, seq, err := s.store.ExportSnapshot()
		if err != nil {
			return err
		}
		if err := writeFrame(conn, FrameSnapshot, seq, data); err != nil {
			return err
		}
		s.tel.frames.Inc()
		s.tel.bytes.Add(uint64(len(data)))
		s.tel.snapshots.Inc()
		cursor := seq
		for {
			rec, behind, ok := s.feed.next(cursor, stop)
			if !ok {
				return nil
			}
			if behind {
				break // fell off the tail buffer: catch up with a fresh snapshot
			}
			payload := append([]byte{rec.typ}, rec.payload...)
			if err := writeFrame(conn, FrameRecord, rec.seq, payload); err != nil {
				return err
			}
			s.tel.frames.Inc()
			s.tel.bytes.Add(uint64(len(payload)))
			cursor = rec.seq
		}
	}
}

// Follower consumes a replication stream into a Replica, acking each
// durable watermark. Torn or reordered frames end the stream with an
// error — the replica refuses them (jobs.Replica.ApplyRecord), and the
// follower never scans forward looking for a frame boundary.
type Follower struct {
	rep *jobs.Replica
	seq atomic.Uint64
}

// NewFollower wraps a replica.
func NewFollower(rep *jobs.Replica) *Follower {
	f := &Follower{rep: rep}
	f.seq.Store(rep.Seq())
	return f
}

// Seq returns the follower's durable watermark. Safe to call from
// other goroutines while Run is consuming the stream.
func (f *Follower) Seq() uint64 { return f.seq.Load() }

// Replica returns the underlying replica — the promotion input.
func (f *Follower) Replica() *jobs.Replica { return f.rep }

// Run consumes frames until the stream ends. A clean EOF at a frame
// boundary returns nil (the master closed or crashed; the replica is
// intact at its watermark and ready for promotion); anything else —
// torn frame, checksum failure, sequence gap — is returned.
func (f *Follower) Run(conn io.ReadWriteCloser) error {
	defer conn.Close()
	for {
		fr, err := frame.Read(conn, streamFormat)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := f.apply(fr); err != nil {
			return err
		}
		if err := writeFrame(conn, FrameAck, f.rep.Seq(), nil); err != nil {
			return err
		}
	}
}
