package netproto

import (
	"fmt"
	"time"

	"keysearch/internal/cracker"
	"keysearch/internal/keyspace"
)

// Hello is the registration handshake, both directions: the worker
// announces its version and name, the master acks with its own version
// (name "master"). Either side refuses a version it does not speak.
type Hello struct {
	Version int
	Name    string
}

// EncodeHello serializes a Hello.
func EncodeHello(h Hello) []byte {
	var e enc
	e.u32(uint32(h.Version))
	e.str(h.Name)
	return e.b
}

// DecodeHello parses a Hello.
func DecodeHello(b []byte) (Hello, error) {
	d := dec{b: b}
	h := Hello{Version: int(d.u32()), Name: d.str()}
	return h, d.err()
}

// JobSpec describes a cracking job on the wire: everything a worker needs
// to regenerate its sub-space locally. A multi-target job carries no
// Target; instead CorpusID content-addresses a digest corpus transferred
// separately over MsgCorpus chunks (see the package doc's v3 section).
type JobSpec struct {
	Algorithm  cracker.Algorithm
	Kind       cracker.KernelKind
	Target     []byte
	SaltPrefix []byte
	SaltSuffix []byte
	Charset    string
	MinLen     int
	MaxLen     int
	Order      keyspace.Order
	// CorpusID is the content hash (targetset.ID) of the encoded target
	// set this spec searches; zero means single-target mode.
	CorpusID uint64
}

// EncodeJob serializes a JobSpec.
func EncodeJob(j JobSpec) []byte {
	var e enc
	e.u8(byte(j.Algorithm))
	e.u8(byte(j.Kind))
	e.bytes(j.Target)
	e.bytes(j.SaltPrefix)
	e.bytes(j.SaltSuffix)
	e.str(j.Charset)
	e.u32(uint32(j.MinLen))
	e.u32(uint32(j.MaxLen))
	e.u8(byte(j.Order))
	e.u64(j.CorpusID)
	return e.b
}

// DecodeJob parses a JobSpec.
func DecodeJob(b []byte) (JobSpec, error) {
	d := dec{b: b}
	j := JobSpec{
		Algorithm:  cracker.Algorithm(d.u8()),
		Kind:       cracker.KernelKind(d.u8()),
		Target:     d.bytes(),
		SaltPrefix: d.bytes(),
		SaltSuffix: d.bytes(),
		Charset:    d.str(),
		MinLen:     int(d.u32()),
		MaxLen:     int(d.u32()),
		Order:      keyspace.Order(d.u8()),
		CorpusID:   d.u64(),
	}
	if err := d.err(); err != nil {
		return j, err
	}
	if !j.Algorithm.Valid() {
		return j, fmt.Errorf("netproto: bad algorithm %d", int(j.Algorithm))
	}
	if !j.Order.Valid() {
		return j, fmt.Errorf("netproto: bad order %d", int(j.Order))
	}
	if j.CorpusID != 0 && len(j.Target) != 0 {
		return j, fmt.Errorf("netproto: spec carries both a target and corpus %016x", j.CorpusID)
	}
	return j, nil
}

// Build materializes the job: parses the charset, builds the space and the
// cracker job. A multi-target spec's corpus is NOT attached here — the
// worker resolves CorpusID against its per-connection corpus table and
// sets Job.Corpus itself, refusing a spec whose corpus never arrived.
func (j JobSpec) Build() (*cracker.Job, error) {
	cs, err := keyspace.NewCharset(j.Charset)
	if err != nil {
		return nil, err
	}
	space, err := keyspace.New(cs, j.MinLen, j.MaxLen, j.Order)
	if err != nil {
		return nil, err
	}
	return &cracker.Job{
		Algorithm: j.Algorithm,
		Target:    j.Target,
		Space:     space,
		Kind:      j.Kind,
		Salt:      cracker.Salt{Prefix: j.SaltPrefix, Suffix: j.SaltSuffix},
	}, nil
}

// SpecID is the content hash that keys the per-connection spec table:
// FNV-1a over the spec's wire encoding. Both sides compute it from the
// spec itself, so a MsgSpec frame whose ID does not match its payload is
// detectably corrupt and an ID can never silently name the wrong space.
func SpecID(spec JobSpec) uint64 { return specHash(EncodeJob(spec)) }

func specHash(encoded []byte) uint64 {
	// FNV-1a 64-bit; inlined to keep the wire layer dependency-free.
	h := uint64(14695981039346656037)
	for _, b := range encoded {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// SpecFrame is the payload of MsgSpec: a job spec and its content-hash
// ID, installing the spec in the receiving connection's table.
type SpecFrame struct {
	ID   uint64
	Spec JobSpec
}

// EncodeSpec serializes a spec registration; the ID is derived from the
// spec's encoding, never caller-supplied.
func EncodeSpec(spec JobSpec) []byte {
	job := EncodeJob(spec)
	var e enc
	e.u64(specHash(job))
	e.b = append(e.b, job...)
	return e.b
}

// DecodeSpec parses and verifies a spec registration: the job must
// decode and the carried ID must equal the content hash of the job
// bytes.
func DecodeSpec(b []byte) (SpecFrame, error) {
	if len(b) < 8 {
		return SpecFrame{}, errShortPayload
	}
	d := dec{b: b}
	id := d.u64()
	job := b[8:]
	spec, err := DecodeJob(job)
	if err != nil {
		return SpecFrame{}, err
	}
	if want := specHash(job); id != want {
		return SpecFrame{}, fmt.Errorf("netproto: spec ID mismatch: frame says %016x, content hashes to %016x", id, want)
	}
	return SpecFrame{ID: id, Spec: spec}, nil
}

// CorpusChunkSize is the data payload of one MsgCorpus frame: well under
// MaxFrame, so a corpus transfer is many small frames rather than one
// huge one and never starves the connection's liveness traffic.
const CorpusChunkSize = 256 << 10

// CorpusChunk is one MsgCorpus payload: a window of the canonical
// targetset encoding, addressed by the blob's content hash. Chunks are
// sent in order; the receiver assembles them per connection and verifies
// the hash of the whole before decoding.
type CorpusChunk struct {
	ID     uint64 // content hash (targetset.ID) of the complete encoding
	Total  uint32 // total encoded length in bytes
	Offset uint32 // this chunk's byte offset
	Data   []byte
}

// EncodeCorpusChunk serializes a corpus chunk.
func EncodeCorpusChunk(c CorpusChunk) []byte {
	var e enc
	e.u64(c.ID)
	e.u32(c.Total)
	e.u32(c.Offset)
	e.bytes(c.Data)
	return e.b
}

// DecodeCorpusChunk parses a corpus chunk and checks its internal
// geometry (the cross-chunk checks — ordering, completeness, the content
// hash — belong to the assembler).
func DecodeCorpusChunk(b []byte) (CorpusChunk, error) {
	d := dec{b: b}
	c := CorpusChunk{ID: d.u64(), Total: d.u32(), Offset: d.u32(), Data: d.bytes()}
	if err := d.err(); err != nil {
		return CorpusChunk{}, err
	}
	if len(c.Data) == 0 {
		return CorpusChunk{}, fmt.Errorf("netproto: corpus %016x: empty chunk", c.ID)
	}
	if uint64(c.Offset)+uint64(len(c.Data)) > uint64(c.Total) {
		return CorpusChunk{}, fmt.Errorf("netproto: corpus %016x: chunk [%d,%d) overruns total %d",
			c.ID, c.Offset, int(c.Offset)+len(c.Data), c.Total)
	}
	return c, nil
}

// CorpusFrames splits an encoded target set into ready-to-send MsgCorpus
// payloads. The ID is derived from the blob itself (specHash, which
// matches targetset.ID by construction), never caller-supplied.
func CorpusFrames(encoded []byte) [][]byte {
	id := specHash(encoded)
	total := uint32(len(encoded))
	var frames [][]byte
	for off := 0; off < len(encoded); off += CorpusChunkSize {
		end := off + CorpusChunkSize
		if end > len(encoded) {
			end = len(encoded)
		}
		frames = append(frames, EncodeCorpusChunk(CorpusChunk{
			ID: id, Total: total, Offset: uint32(off), Data: encoded[off:end],
		}))
	}
	return frames
}

// Forget is the payload of MsgForget (see the package doc's v5 section).
type Forget struct{ SpecID uint64 }

// EncodeForget serializes a Forget.
func EncodeForget(f Forget) []byte {
	var e enc
	e.u64(f.SpecID)
	return e.b
}

// DecodeForget parses a Forget.
func DecodeForget(b []byte) (Forget, error) {
	d := dec{b: b}
	f := Forget{SpecID: d.u64()}
	return f, d.err()
}

// TuneRequest asks the worker to run the tuning step against a
// registered spec.
type TuneRequest struct {
	SpecID uint64
}

// EncodeTuneRequest serializes a TuneRequest.
func EncodeTuneRequest(t TuneRequest) []byte {
	var e enc
	e.u64(t.SpecID)
	return e.b
}

// DecodeTuneRequest parses a TuneRequest.
func DecodeTuneRequest(b []byte) (TuneRequest, error) {
	d := dec{b: b}
	t := TuneRequest{SpecID: d.u64()}
	return t, d.err()
}

// TuneResult carries the tuning step's outcome.
type TuneResult struct {
	MinBatch   uint64
	Throughput float64
}

// EncodeTuneResult serializes a TuneResult.
func EncodeTuneResult(t TuneResult) []byte {
	var e enc
	e.u64(t.MinBatch)
	e.f64(t.Throughput)
	return e.b
}

// DecodeTuneResult parses a TuneResult.
func DecodeTuneResult(b []byte) (TuneResult, error) {
	d := dec{b: b}
	t := TuneResult{MinBatch: d.u64(), Throughput: d.f64()}
	return t, d.err()
}

// SearchRequest is an identifier interval to search against a
// registered spec. Seq names the search for the connection's progress
// and shrink frames (see the package doc's v4 section); ProgressEvery
// is the cadence at which the worker should send MsgProgress marks
// while the search runs (0 = no progress reporting).
type SearchRequest struct {
	SpecID        uint64
	Seq           uint64
	ProgressEvery time.Duration
	Start, End    keyspace.ID
}

// EncodeSearch serializes a SearchRequest.
func EncodeSearch(s SearchRequest) []byte {
	var e enc
	e.u64(s.SpecID)
	e.u64(s.Seq)
	e.u64(uint64(s.ProgressEvery))
	e.id(s.Start)
	e.id(s.End)
	return e.b
}

// DecodeSearch parses a SearchRequest.
func DecodeSearch(b []byte) (SearchRequest, error) {
	d := dec{b: b}
	s := SearchRequest{
		SpecID:        d.u64(),
		Seq:           d.u64(),
		ProgressEvery: time.Duration(d.u64()),
		Start:         d.id(),
		End:           d.id(),
	}
	if err := d.err(); err != nil {
		return s, err
	}
	if s.ProgressEvery < 0 {
		return s, fmt.Errorf("netproto: negative progress cadence %v", s.ProgressEvery)
	}
	return s, nil
}

// Progress is the payload of MsgProgress: the worker has fully tested
// the first Done keys of the search named Seq. Done is always a batch
// boundary, so the master may treat it as a safe split point.
type Progress struct {
	Seq  uint64
	Done uint64
}

// EncodeProgress serializes a Progress mark.
func EncodeProgress(p Progress) []byte {
	var e enc
	e.u64(p.Seq)
	e.u64(p.Done)
	return e.b
}

// DecodeProgress parses a Progress mark.
func DecodeProgress(b []byte) (Progress, error) {
	d := dec{b: b}
	p := Progress{Seq: d.u64(), Done: d.u64()}
	return p, d.err()
}

// Shrink is the payload of MsgShrink: truncate the search named Seq to
// its first Keep keys. Keep = 0 means "stop at the next batch boundary"
// — the cancellation limit of the same mechanism.
type Shrink struct {
	Seq  uint64
	Keep uint64
}

// EncodeShrink serializes a Shrink request.
func EncodeShrink(s Shrink) []byte {
	var e enc
	e.u64(s.Seq)
	e.u64(s.Keep)
	return e.b
}

// DecodeShrink parses a Shrink request.
func DecodeShrink(b []byte) (Shrink, error) {
	d := dec{b: b}
	s := Shrink{Seq: d.u64(), Keep: d.u64()}
	return s, d.err()
}

// ShrinkAck answers a Shrink. On OK, Keep is the effective boundary the
// worker committed to — at least the requested Keep, rounded up past
// any batch already in flight — and the search will test exactly
// [start, start+Keep). On refusal (OK false) the search is unaffected;
// Keep then reports the current limit for diagnostics.
type ShrinkAck struct {
	Seq  uint64
	Keep uint64
	OK   bool
}

// EncodeShrinkAck serializes a ShrinkAck.
func EncodeShrinkAck(a ShrinkAck) []byte {
	var e enc
	e.u64(a.Seq)
	e.u64(a.Keep)
	if a.OK {
		e.u8(1)
	} else {
		e.u8(0)
	}
	return e.b
}

// DecodeShrinkAck parses a ShrinkAck.
func DecodeShrinkAck(b []byte) (ShrinkAck, error) {
	d := dec{b: b}
	a := ShrinkAck{Seq: d.u64(), Keep: d.u64()}
	switch ok := d.u8(); ok {
	case 0:
	case 1:
		a.OK = true
	default:
		if d.e == nil {
			return a, fmt.Errorf("netproto: bad shrink-ack flag %d", ok)
		}
	}
	return a, d.err()
}

// Heartbeat is the payload of MsgPing and MsgPong. The master pings while
// a call is in flight; the worker echoes the sequence number back even
// while a search occupies its cores, which is what lets the master tell a
// slow worker from a dead one.
type Heartbeat struct {
	Seq uint64
}

// EncodeHeartbeat serializes a Heartbeat.
func EncodeHeartbeat(h Heartbeat) []byte {
	var e enc
	e.u64(h.Seq)
	return e.b
}

// DecodeHeartbeat parses a Heartbeat.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	d := dec{b: b}
	h := Heartbeat{Seq: d.u64()}
	return h, d.err()
}

// Requeue is a worker's graceful hand-back of an interval it will not
// finish (local shutdown, resource loss). The master returns the interval
// to the job's pool exactly as if the worker had failed, but without
// waiting for a heartbeat timeout.
type Requeue struct {
	Start, End keyspace.ID
	Reason     string
}

// EncodeRequeue serializes a Requeue.
func EncodeRequeue(r Requeue) []byte {
	var e enc
	e.id(r.Start)
	e.id(r.End)
	e.str(r.Reason)
	return e.b
}

// DecodeRequeue parses a Requeue.
func DecodeRequeue(b []byte) (Requeue, error) {
	d := dec{b: b}
	r := Requeue{Start: d.id(), End: d.id(), Reason: d.str()}
	return r, d.err()
}

// SearchResult carries a worker's findings for one interval.
type SearchResult struct {
	Found   [][]byte
	Tested  uint64
	Elapsed time.Duration
}

// EncodeSearchResult serializes a SearchResult.
func EncodeSearchResult(r SearchResult) []byte {
	var e enc
	e.u32(uint32(len(r.Found)))
	for _, f := range r.Found {
		e.bytes(f)
	}
	e.u64(r.Tested)
	e.u64(uint64(r.Elapsed))
	return e.b
}

// DecodeSearchResult parses a SearchResult.
func DecodeSearchResult(b []byte) (SearchResult, error) {
	d := dec{b: b}
	n := d.u32()
	if d.e == nil && n > MaxFrame/5 {
		return SearchResult{}, fmt.Errorf("netproto: implausible found count %d", n)
	}
	r := SearchResult{}
	for i := uint32(0); i < n && d.e == nil; i++ {
		r.Found = append(r.Found, d.bytes())
	}
	r.Tested = d.u64()
	r.Elapsed = time.Duration(d.u64())
	return r, d.err()
}
