// Package netproto implements the cluster wire protocol: a master process
// drives remote worker processes over TCP, each worker exposing the two
// coarse-grain operations (tune, search) on its local CPU cracker.
//
// One scheduler owns a TCP worker: the job service (internal/jobs), which
// sees each accepted worker as a jobs.Executor (Executor in this package)
// beside its local ones — the point of the paper's pattern is that the
// coarse grain does not care whether a node is a goroutine or a machine
// across a LAN. keymaster's single-search mode is one job of that
// service.
//
// Framing: every message is a 4-byte big-endian payload length, a 1-byte
// message type, then the payload. Payloads are hand-encoded with
// length-prefixed fields; the amount of data is deliberately tiny (§III:
// "only a very small amount of data must be scattered ... to each
// computing node" — an interval is two integers and a spec ID).
//
// # Protocol v2: the spec table
//
// A worker is not bound to one job. Registration is a bare handshake —
// the worker sends MsgHello{Version, Name}, the master answers with its
// own MsgHello (version negotiation both ways) — and every subsequent
// call names the job it runs against:
//
//   - MsgSpec registers a job spec in the connection's spec table. The
//     frame carries the spec's ID — a content hash of its encoding — and
//     the spec itself; the receiver recomputes the hash and rejects a
//     mismatched frame, so a corrupted table entry can never silently
//     search the wrong space. The master sends a spec once per stay in
//     the table (a fresh connection after a reconnect starts with an
//     empty table and the spec is re-sent before its next use).
//   - MsgTune and MsgSearch reference a previously registered spec by
//     ID. The worker builds the cracker job for a spec when it is
//     installed and keeps it in the table under its ID until the master
//     forgets it (v5, below), so the same TCP fleet serves many tenants'
//     jobs — the multiplexing the internal/jobs service needs — with
//     per-call overhead of eight bytes.
//
// Version 1 peers are incompatible and fail fast at the handshake: a v1
// worker announces Version 1 and is refused with MsgError before any
// work is exchanged; a v1 master answers the hello with MsgJob, which a
// newer worker rejects with a targeted error instead of waiting for a
// spec table that will never come.
//
// # Protocol v3: digest corpora
//
// A multi-target spec names a digest corpus by content hash (CorpusID,
// the FNV-1a of the canonical targetset encoding — the same hash that
// keys the spec table). The corpus itself travels in MsgCorpus chunks
// ahead of the MsgSpec frame that references it:
//
//   - each chunk carries the corpus ID, the total encoded length, the
//     chunk's offset and its bytes; the worker assembles chunks in
//     order, per connection, and rejects gaps, overlaps or a total that
//     exceeds the targetset codec's cap;
//   - when the last chunk lands, the worker recomputes the content hash
//     over the reassembled blob and refuses a mismatch, then decodes it
//     through targetset.Decode — which re-verifies the CRC and every
//     Bloom/corpus invariant — before installing the set in the
//     connection's corpus table;
//   - a MsgSpec whose CorpusID is absent from that table is refused, so
//     a spec can never silently run with the wrong (or no) corpus.
//
// Like specs, corpora are sent at most once per connection while they
// stay in its tables, and re-sent transparently after a reconnect or
// once a v5 forget has dropped them. The corpus is the one deliberately
// large payload in the protocol; chunking keeps every frame under
// MaxFrame so liveness frames never queue behind a megabyte write.
//
// # Protocol v4: progress and shrink
//
// Version 4 makes an in-flight search visible and divisible, which is
// what lets the job service steal a straggler's untested tail while the
// straggler keeps running (the fleet-saturation pattern of §VII):
//
//   - every MsgSearch carries a master-chosen sequence number (Seq) and
//     a progress cadence (ProgressEvery). While the search runs, the
//     worker sends MsgProgress{Seq, Done} from its search goroutines
//     roughly every cadence interval. A batch is the chunk one goroutine
//     claims from internal/core's claim loop (WorkerConfig.ProgressBatch
//     feeds core.Options.ChunkSize; there is no second loop above it),
//     and Done is core.Live's tested-prefix mark: every key below it,
//     counted from the interval's start, has been tested, whatever later
//     batches are still in flight — always a batch boundary or the
//     search's end, so the mark is a safe split point by construction,
//     and marks on one connection only ever rise;
//   - MsgShrink{Seq, Keep} asks the worker to truncate the running
//     search to its first Keep keys. The worker answers
//     MsgShrinkAck{Seq, Keep, OK} from its read loop with what
//     core.Live.Shrink decided: on OK the ack's Keep is the EFFECTIVE
//     boundary — never less than the end of the last batch any goroutine
//     has claimed, so a shrink can never land behind work already begun
//     — and the worker guarantees it will test exactly
//     [start, start+Keep) and report Tested = Keep. A refused shrink
//     (every key at or past the requested boundary is already claimed,
//     no matching search is running, or the interval is wider than
//     uint64) answers OK = false and the search is unaffected;
//   - Keep = 0 is the cancellation limit of the same mechanism: every
//     goroutine finishes the batch it holds and claims no other. The
//     master sends it when a search's context is cancelled, then drains
//     the (truncated) result frame so the connection stays clean for
//     the next call instead of being torn down;
//   - Seq makes stale frames inert: a MsgProgress or MsgShrinkAck whose
//     Seq does not match the connection's current search is dropped,
//     and a MsgShrink for a finished search is refused. Frames from a
//     previous call can therefore never move a later search's boundary.
//
// # Protocol v5: forgetting
//
// Version 5 bounds the worker's tables by the live jobs. The master
// counts the holders of each spec ID on a worker — calls in flight, and
// the live jobs (internal/jobs handles) whose leases ran there. Once the
// last one lets go, it queues MsgForget{SpecID} and sends it at the head
// of its next call's prelude, unless the spec is held again first. The
// worker drops the spec, and its corpus once no remaining spec names it
// (two live jobs may share one); a forget for an absent spec is a no-op
// and has no answer. The master's sent-set follows the same rule, so a
// later job re-sends what it needs, and forgets queued for a connection
// that has since been replaced are dropped with its tables.
//
// # Failure model
//
// The master reads each worker connection with one reader for its life,
// which routes pongs, progress marks and shrink acks (by Seq) and hands a
// reply to the one call waiting for it. A read error, an unknown frame
// type or a reply no call waits for (a worker answering twice, or
// unasked) closes the connection: no call takes a stale frame for its
// answer.
//
// A search call can outlive any fixed network timeout, so liveness and
// progress are separated: while a call is in flight, and only then, the
// master sends MsgPing every MasterOptions.Heartbeat (default 2s) and the
// reader holds a read deadline of MasterOptions.HeartbeatTimeout (default
// 4x the interval), re-armed per frame; the worker answers MsgPong from
// its read loop even while the search runs in another goroutine. A worker
// that is merely slow keeps ponging; a dead or partitioned one goes silent
// and is detected within one HeartbeatTimeout.
//
// When a call fails at the transport level the connection is discarded
// and the call retried per MasterOptions.Retry (capped exponential
// backoff with deterministic jitter); each backoff doubles as a rejoin
// window, because the accept loop runs for the master's lifetime and a
// worker re-registering under a known name has its fresh connection
// handed to the existing remote worker. Only when every attempt is
// exhausted does the call error back to the job service, which requeues
// the worker's in-flight lease for the survivors; the lease was never
// removed from the job's durable remaining set, so a master restart
// cannot lose it either (see internal/jobs). Application-level failures
// (MsgError) are never retried: the worker is alive and has answered.
// A worker shutting down cleanly sends MsgRequeue so the master can
// return its interval to the pool without waiting out a timeout.
//
// Exactly one disposition leaves the worker per accepted interval:
// either MsgSearchResult or MsgRequeue, never both. The worker claims
// the in-flight interval under the same lock from both the shutdown
// path and the search-completion path, so a cancellation that lands at
// the instant a search finishes cannot requeue an interval whose result
// is already on the wire (which would make the master re-search — and
// re-count — finished work). Symmetrically, the interval is recorded as
// in flight in the same critical section that accepts the search, so a
// cancellation can never land in a window where the worker is busy but
// nothing is requeueable.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"keysearch/internal/keyspace"
)

// MsgType identifies a protocol message.
type MsgType byte

// Protocol messages.
const (
	MsgHello        MsgType = iota + 1 // worker -> master: version, name; master -> worker: handshake ack
	MsgJob                             // v1 only (master -> worker job at registration); v2 peers reject it
	MsgTune                            // master -> worker: run the tuning step for a spec ID
	MsgTuneResult                      // worker -> master: n_j, X_j
	MsgSearch                          // master -> worker: spec ID + identifier interval
	MsgSearchResult                    // worker -> master: found keys, tested count
	MsgError                           // either direction: failure description
	MsgPing                            // master -> worker: liveness probe (sent during long calls)
	MsgPong                            // worker -> master: liveness answer, echoes the ping sequence
	MsgRequeue                         // worker -> master: cannot finish this interval, give it back
	MsgSpec                            // master -> worker: register a job spec (content-hash ID + spec)
	MsgCorpus                          // master -> worker: one chunk of an encoded target-set corpus
	MsgProgress                        // worker -> master: tested-up-to mark for the active search
	MsgShrink                          // master -> worker: truncate the active search at a boundary
	MsgShrinkAck                       // worker -> master: effective boundary, or refusal
	MsgForget                          // master -> worker: drop a spec (and any corpus no spec names)
)

// Version is the protocol version exchanged in MsgHello. Version 2
// introduced the per-connection spec table (MsgSpec) and per-call spec
// IDs in MsgTune/MsgSearch; version 3 added multi-target specs: a
// CorpusID field on the wire spec and MsgCorpus chunk transfer of the
// encoded target set it names; version 4 added live-search visibility —
// Seq and ProgressEvery on MsgSearch, MsgProgress marks, and the
// MsgShrink/MsgShrinkAck truncation handshake that backs work stealing;
// version 5 added MsgForget, which ends a spec's life in the worker's
// tables. Older peers are refused at the handshake.
const Version = 5

// MaxFrame is the maximum accepted payload size; anything larger is
// treated as a malformed frame. Search results carry at most a few keys,
// so frames stay tiny.
const MaxFrame = 1 << 20

// WriteFrame sends one message.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("netproto: frame too large (%d bytes)", len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame receives one message.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("netproto: oversized frame (%d bytes)", n)
	}
	t := MsgType(hdr[4])
	if t < MsgHello || t > MsgForget {
		return 0, nil, fmt.Errorf("netproto: unknown message type %d", hdr[4])
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// enc is an append-style payload encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	e.b = append(e.b, buf[:]...)
}
func (e *enc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) str(v string) { e.bytes([]byte(v)) }

// id writes an identifier as bytes: its minimal big-endian magnitude,
// the encoding of big.Int.Bytes, so zero is empty.
func (e *enc) id(v keyspace.ID) {
	at := len(e.b)
	e.u32(0)
	e.b = v.AppendBytes(e.b)
	binary.BigEndian.PutUint32(e.b[at:], uint32(len(e.b)-at-4))
}

// dec is a sequential payload decoder. Every method fails softly by
// recording the first error; callers check err() once.
type dec struct {
	b   []byte
	off int
	e   error
}

var errShortPayload = errors.New("netproto: truncated payload")

func (d *dec) take(n int) []byte {
	if d.e != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.e = errShortPayload
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) u8() byte {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (d *dec) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

func (d *dec) u64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

func (d *dec) f64() float64 {
	return math.Float64frombits(d.u64())
}

func (d *dec) bytes() []byte {
	n := d.u32()
	if d.e == nil && int(n) > len(d.b)-d.off {
		d.e = errShortPayload
		return nil
	}
	v := d.take(int(n))
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

func (d *dec) str() string { return string(d.bytes()) }

// id reads an identifier written by enc.id; more than 16 bytes is an
// error.
func (d *dec) id() keyspace.ID {
	v, err := keyspace.IDFromBytes(d.bytes())
	if err != nil && d.e == nil {
		d.e = fmt.Errorf("netproto: %w", err)
	}
	return v
}

func (d *dec) err() error {
	if d.e != nil {
		return d.e
	}
	if d.off != len(d.b) {
		return fmt.Errorf("netproto: %d trailing bytes in payload", len(d.b)-d.off)
	}
	return nil
}
