package frame

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// File is what a Log needs of its file: *os.File in production, a
// fault-injecting fake in the tests.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// LogOptions configure OpenLog.
type LogOptions struct {
	Format Format
	// NoSync skips the per-append fsync.
	NoSync bool
	// Now and OnSync, set together, time each append's fsync on the
	// caller's clock.
	Now    func() time.Time
	OnSync func(time.Duration)
}

// Log is an append-only file of frames with strictly increasing
// sequence numbers. It is not goroutine-safe: its owner serializes.
type Log struct {
	f    File
	path string
	o    LogOptions
	seq  uint64 // last sequence appended
	size int64  // bytes of whole frames in the file: where the next one starts
	err  error  // sticky, once the file's tail can no longer be trusted
}

// OpenLog opens (creating if needed) the log at path for appending. It
// does not read the file: Replay recovers what it holds, Reset discards
// it, and one of the two must precede the first Append to a non-empty
// log.
func OpenLog(path string, o LogOptions) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() // the stat error is the one reported
		return nil, err
	}
	return &Log{f: f, path: path, o: o, size: st.Size()}, nil
}

// Replay reads the log from its start. Frames at or below after are
// skipped — a snapshot already covers them (a crash fell between the
// snapshot's rename and the log's reset) — and the rest must run
// contiguously from after+1 and are applied in order. A torn tail is
// crash residue and is truncated away, so the next Append starts at a
// frame boundary; corruption, a reordered or spliced sequence, or an
// apply error aborts with that error and leaves the file alone.
func (l *Log) Replay(after uint64, apply func(Frame) error) error {
	r, err := os.Open(l.path)
	if err != nil {
		return err
	}
	defer r.Close()
	last, clean := after, int64(0)
	for {
		fr, err := Read(r, l.o.Format)
		if err == io.EOF || errors.Is(err, ErrTorn) {
			break
		}
		if err != nil {
			return err
		}
		if fr.Seq > after {
			if fr.Seq != last+1 {
				return fmt.Errorf("%w: sequence %d after %d (reordered or spliced log)", ErrCorrupt, fr.Seq, last)
			}
			if err := apply(fr); err != nil {
				return err
			}
			last = fr.Seq
		}
		clean += int64(Overhead + len(fr.Payload))
	}
	if clean < l.size {
		if err := l.f.Truncate(clean); err != nil {
			return fmt.Errorf("frame: repairing torn tail: %w", err)
		}
	}
	l.seq, l.size = last, clean
	return nil
}

// Seq returns the last sequence appended (or replayed, or Reset to).
func (l *Log) Seq() uint64 { return l.seq }

// Append frames one record as sequence Seq()+1, writes it and, unless
// NoSync, fsyncs; when it returns nil the record is durable and ordered
// ahead of every later one. The failure policy lives here and only here:
//
//   - failed or short write: the file is truncated back to the last whole
//     frame, the sequence is not consumed, and the log stays usable;
//   - failed fsync (or a truncate-back that itself fails): the log is
//     poisoned — this and every later Append return the same error. A
//     retried fsync can falsely succeed after the kernel dropped the dirty
//     pages, so the owner must fail stop and let its follower promote.
//
// Either way a reopened log replays a clean contiguous prefix.
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	if l.err != nil {
		return 0, l.err
	}
	if err := l.o.Format.check(typ, uint64(len(payload))); err != nil {
		return 0, err
	}
	buf := Append(nil, typ, l.seq+1, payload)
	if _, err := l.f.Write(buf); err != nil { // io.Writer: a short write is an error too
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("frame: log poisoned: append failed (%v) and truncating it away failed: %w", err, terr)
			return 0, l.err
		}
		return 0, err
	}
	if !l.o.NoSync {
		var start time.Time
		if l.o.OnSync != nil {
			start = l.o.Now()
		}
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("frame: log poisoned by failed fsync: %w", err)
			return 0, l.err
		}
		if l.o.OnSync != nil {
			l.o.OnSync(l.o.Now().Sub(start))
		}
	}
	l.seq++
	l.size += int64(len(buf))
	return l.seq, nil
}

// Reset empties the log once a snapshot covers everything in it; the
// next Append is seq+1.
func (l *Log) Reset(seq uint64) error {
	if l.err != nil {
		return l.err
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.seq, l.size = seq, 0
	return nil
}

// Close flushes and releases the file; a poisoned log reports its
// poison. Closing again is a no-op, and later appends fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.err
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.err = nil, os.ErrClosed
	return err
}

// WriteFileAtomic replaces path with data: tmp + fsync + rename, so a
// crash leaves the old file or the new one, never a torn one, then an
// fsync of the directory, so the rename is ordered before whatever the
// caller does next (compaction goes on to reset the log the new snapshot
// replaces). A failure leaves the old file in place and no tmp behind.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best-effort cleanup; the first error is the one reported
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close() // read-only handle
	return dir.Sync()
}
