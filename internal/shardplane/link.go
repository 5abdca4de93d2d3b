package shardplane

import (
	"bytes"
	"fmt"

	"keysearch/internal/frame"
)

// Link is a synchronous, in-process replication channel for
// deterministic rehearsal: the store's append hook feeds records
// straight into a Replica through the frame codec (encode, then
// decode — the same bytes a TCP follower would see), with an optional
// lag window holding back the newest records to model replication
// delay. A simulated crash calls Drop, losing exactly the lagged
// window — the analogue of in-flight frames on a severed link.
//
// Link is not goroutine-safe: the virtual-time engine is
// single-threaded by design, and a real deployment uses Sender and
// Follower over a connection instead.
type Link struct {
	fol   *Follower
	lag   int
	queue []frame.Frame
	err   error // first failure, sticky: a rehearsal must not mask it
}

// NewLink wraps a follower in a synchronous channel holding back lag
// records (0 = apply immediately).
func NewLink(fol *Follower, lag int) *Link {
	return &Link{fol: fol, lag: lag}
}

// Seed sends the initial snapshot, like a sender's first frame. The
// snapshotter is any source of (snapshot bytes, watermark) — normally
// jobs.Store.ExportSnapshot.
func (l *Link) Seed(snapshot func() ([]byte, uint64, error)) error {
	data, seq, err := snapshot()
	if err != nil {
		return err
	}
	fr, err := l.roundTrip(FrameSnapshot, seq, data)
	if err != nil {
		return err
	}
	return l.fol.apply(fr)
}

// OnAppend is the store hook: frame the record, hold it in the lag
// window, and apply everything older than the window. Errors latch
// into Err rather than propagate — the store hook has no error path,
// exactly like a background sender.
func (l *Link) OnAppend(typ byte, seq uint64, payload []byte) {
	if l.err != nil {
		return
	}
	fr, err := l.roundTrip(FrameRecord, seq, append([]byte{typ}, payload...))
	if err != nil {
		l.err = err
		return
	}
	l.queue = append(l.queue, fr)
	for len(l.queue) > l.lag {
		if l.err = l.fol.apply(l.queue[0]); l.err != nil {
			return
		}
		l.queue = l.queue[1:]
	}
}

// Drop discards the lag window — the records a crash loses.
func (l *Link) Drop() int {
	n := len(l.queue)
	l.queue = nil
	return n
}

// Flush applies the whole lag window (a graceful handoff).
func (l *Link) Flush() error {
	for len(l.queue) > 0 {
		if err := l.fol.apply(l.queue[0]); err != nil {
			l.err = err
			return err
		}
		l.queue = l.queue[1:]
	}
	return nil
}

// Lagged returns the records currently held in the lag window.
func (l *Link) Lagged() int { return len(l.queue) }

// Err returns the first latched failure.
func (l *Link) Err() error { return l.err }

// roundTrip pushes a frame through the real codec so every rehearsed
// record crosses the same encode/decode path as a wire frame.
func (l *Link) roundTrip(typ byte, seq uint64, payload []byte) (frame.Frame, error) {
	fr, err := frame.Read(bytes.NewReader(frame.Append(nil, typ, seq, payload)), streamFormat)
	if err != nil {
		return frame.Frame{}, fmt.Errorf("shardplane: link codec round-trip: %w", err)
	}
	return fr, nil
}

// apply routes one frame into the follower's replica — the shared tail
// of Follower.Run and Link.
func (f *Follower) apply(fr frame.Frame) error {
	switch fr.Type {
	case FrameSnapshot:
		if err := f.rep.ApplySnapshot(fr.Payload); err != nil {
			return err
		}
	case FrameRecord:
		if len(fr.Payload) < 1 {
			return fmt.Errorf("%w: empty record frame", frame.ErrCorrupt)
		}
		if err := f.rep.ApplyRecord(fr.Payload[0], fr.Seq, fr.Payload[1:]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unexpected %d frame on follower", frame.ErrCorrupt, fr.Type)
	}
	f.seq.Store(f.rep.Seq())
	return nil
}
