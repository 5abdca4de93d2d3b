package jobs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"keysearch/internal/frame"
)

// Replica is a warm standby copy of a Store's directory, fed by a
// replication stream: one full snapshot to establish a watermark, then
// live WAL records in strict sequence order. It never interprets the
// job table — it only lands bytes durably in the same on-disk layout a
// Store writes, so promotion is simply closing the replica and running
// the store's normal crash recovery (Open) over its directory. Every
// invariant recovery enforces — checksums, contiguous sequences, valid
// transitions — therefore guards the promoted table too.
//
// A Replica is not goroutine-safe; the replication follower drives it
// from a single loop.
type Replica struct {
	dir    string
	log    *frame.Log // the WAL tail; its Seq is the replica's watermark
	seeded bool       // snapshot applied; records accepted only after this
}

// ReplicaOptions configure OpenReplica.
type ReplicaOptions struct {
	// NoSync skips per-record fsync, mirroring StoreOptions.NoSync.
	NoSync bool
}

// OpenReplica creates (or reopens) a replica directory. A replica
// always starts unseeded: the sender's first frame is a full snapshot,
// which atomically replaces whatever an earlier incarnation left
// behind, so a half-replicated directory can never be promoted past
// the snapshot it last completed.
func OpenReplica(dir string, opts ReplicaOptions) (*Replica, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	log, err := frame.OpenLog(filepath.Join(dir, walFile), frame.LogOptions{Format: walFormat, NoSync: opts.NoSync})
	if err != nil {
		return nil, err
	}
	return &Replica{dir: dir, log: log}, nil
}

// Dir returns the replica's directory — the argument to Open at
// promotion time.
func (r *Replica) Dir() string { return r.dir }

// Seq returns the last applied WAL sequence: the replica's watermark,
// which the follower acks back to the sender.
func (r *Replica) Seq() uint64 { return r.log.Seq() }

// Seeded reports whether a snapshot has landed this session.
func (r *Replica) Seeded() bool { return r.seeded }

// ApplySnapshot verifies and lands a full store snapshot, truncating
// the local WAL to empty and moving the watermark to the snapshot's.
// The sender may re-snapshot mid-stream (after falling behind a
// trimmed tail); a watermark regression is refused — a stale snapshot
// must never erase records the replica already acked.
func (r *Replica) ApplySnapshot(data []byte) error {
	env, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	if r.seeded && env.Seq < r.Seq() {
		return fmt.Errorf("%w: snapshot watermark %d behind replica %d", frame.ErrCorrupt, env.Seq, r.Seq())
	}
	if err := frame.WriteFileAtomic(filepath.Join(r.dir, snapFile), data); err != nil {
		return err
	}
	// The snapshot covers everything the old tail held.
	if err := r.log.Reset(env.Seq); err != nil {
		return err
	}
	r.seeded = true
	return nil
}

// ApplyRecord appends one replicated WAL record. Records are accepted
// only after a snapshot, in strictly contiguous sequence order — a gap
// or repeat means the stream reordered or dropped a frame, and the
// replica refuses rather than archive a log that recovery would reject
// (or worse, silently accept with a hole).
func (r *Replica) ApplyRecord(typ byte, seq uint64, payload []byte) error {
	if !r.seeded {
		return errors.New("jobs: replica: record before snapshot")
	}
	if seq != r.Seq()+1 {
		return fmt.Errorf("%w: replica: sequence %d after %d", frame.ErrCorrupt, seq, r.Seq())
	}
	if _, err := r.log.Append(typ, payload); err != nil {
		return fmt.Errorf("jobs: replica: %w", err)
	}
	return nil
}

// Close flushes and releases the WAL tail. Promotion closes the replica
// first, then runs Open on its directory.
func (r *Replica) Close() error {
	return r.log.Close()
}
