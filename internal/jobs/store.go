package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"keysearch/internal/dispatch"
	"keysearch/internal/frame"
	"keysearch/internal/keyspace"
	"keysearch/internal/sim"
	"keysearch/internal/telemetry"
)

// On-disk layout inside the store directory.
const (
	walFile  = "jobs.wal"
	snapFile = "jobs.snap"
)

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("jobs: no such job")

// ErrTransition reports a lifecycle transition the graph forbids.
var ErrTransition = errors.New("jobs: invalid state transition")

// StoreOptions configure Open.
type StoreOptions struct {
	// NoSync skips the per-append fsync. Tests use it to keep the WAL
	// hot path fast; production leaves it false — durability of the
	// job table is the point of the log.
	NoSync bool
	// Telemetry receives the WAL/store metrics (nil = no-op).
	Telemetry *telemetry.Registry
	// Clock stamps records (nil = the wall clock). A sim.Virtual clock
	// makes WAL record stamps advance in virtual time, so simulated runs
	// produce deterministic logs. Replay ignores it: recovered timestamps
	// come from the records themselves, so a rebuilt table matches the
	// one that crashed.
	Clock sim.Clock
	// CompactEvery triggers snapshot compaction after this many WAL
	// records (0 = compact only when Compact is called).
	CompactEvery int
	// IDPrefix is prepended to generated job IDs ("s0-" makes
	// "s0-j000001"). A sharded deployment gives each shard a distinct
	// prefix so IDs stay globally unique and the router can map an ID
	// back to its owning shard without a lookup.
	IDPrefix string
	// OnAppend observes every WAL record after it is durable and
	// applied, in sequence order, while the store lock is held — the
	// replication tail hook. The callback must not call back into the
	// store; it should hand the record off (copying payload if it
	// retains it) and return.
	OnAppend func(typ byte, seq uint64, payload []byte)
}

// jobRec is the store's mutable record of one job. The public Job type
// is a snapshot of this.
type jobRec struct {
	id        string
	tenant    string
	priority  int
	spec      Spec
	state     State
	reason    string
	space     keyspace.ID
	cp        dispatch.Checkpoint // remaining intervals, tested, found
	remaining keyspace.ID         // cached cp.RemainingKeys(), kept in lockstep
	subAt     time.Time
	updAt     time.Time
	pos       int // index in Store.order
}

// Store is the persistent job table: an in-memory map rebuilt on Open
// from snapshot + WAL replay, mutated only through append-then-apply —
// every mutation is framed into the log (and fsynced, unless NoSync)
// before the table changes, so the table on disk is never behind the
// one in memory.
type Store struct {
	mu    sync.Mutex
	dir   string
	opts  StoreOptions
	now   func() time.Time
	tel   *storeTelemetry
	log   *frame.Log
	jobs  map[string]*jobRec
	order []string  // table order: submission order, kept by snapshots
	pend  []*jobRec // the StatePending jobs in table order, for admission
	dirty int       // records appended since the last snapshot

	// npend is len(pend), kept by every change to pend so that the lease
	// path reads it without the store lock (PendingCount).
	npend atomic.Int64
}

// Open recovers (or creates) a store in dir: load the snapshot if one
// exists, replay the WAL suffix past its watermark, repair a torn tail
// by truncation, and refuse to start on corruption — a damaged job
// table silently resumed could skip or double-search keyspace.
func Open(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		now:  sim.Wall{}.Now,
		tel:  newStoreTelemetry(opts.Telemetry),
		jobs: make(map[string]*jobRec),
	}
	if opts.Clock != nil {
		s.now = opts.Clock.Now
	}
	watermark, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, walFile)
	s.log, err = frame.OpenLog(path, frame.LogOptions{
		Format: walFormat,
		NoSync: opts.NoSync,
		Now:    s.now,
		OnSync: s.tel.fsync.ObserveDuration,
	})
	if err != nil {
		return nil, err
	}
	if err := s.log.Replay(watermark, s.apply); err != nil {
		s.log.Close() // the recovery error is the one reported
		return nil, fmt.Errorf("jobs: recovering %s: %w", path, err)
	}
	s.tel.replayed.Add(s.log.Seq() - watermark) // replay is contiguous from the watermark
	return s, nil
}

// apply routes one WAL record into the table, enforcing the package
// invariants. Both replay and the live mutation path go through it, so
// the table rebuilt after a crash is the table that crashed.
func (s *Store) apply(rec frame.Frame) error {
	switch recType(rec.Type) {
	case recSubmit:
		var sr submitRecord
		if err := json.Unmarshal(rec.Payload, &sr); err != nil {
			return fmt.Errorf("%w: submit record: %v", frame.ErrCorrupt, err)
		}
		return s.applySubmit(sr)
	case recState:
		var tr stateRecord
		if err := json.Unmarshal(rec.Payload, &tr); err != nil {
			return fmt.Errorf("%w: state record: %v", frame.ErrCorrupt, err)
		}
		return s.applyState(tr)
	case recCheckpoint:
		var cr checkpointRecord
		if err := json.Unmarshal(rec.Payload, &cr); err != nil {
			return fmt.Errorf("%w: checkpoint record: %v", frame.ErrCorrupt, err)
		}
		return s.applyCheckpoint(cr)
	}
	return fmt.Errorf("%w: unhandled record type %d", frame.ErrCorrupt, rec.Type)
}

func (s *Store) applySubmit(sr submitRecord) error {
	if _, ok := s.jobs[sr.ID]; ok {
		return fmt.Errorf("%w: duplicate submit for job %s", frame.ErrCorrupt, sr.ID)
	}
	space, err := sr.Spec.Space()
	if err != nil {
		return fmt.Errorf("jobs: job %s: %w", sr.ID, err)
	}
	at := time.Unix(0, sr.At)
	size := space.Size()
	r := &jobRec{
		id:        sr.ID,
		tenant:    sr.Tenant,
		priority:  sr.Priority,
		spec:      sr.Spec,
		state:     StatePending,
		space:     size,
		cp:        *dispatch.NewCheckpoint([]keyspace.Interval{space.Whole()}, 0, nil),
		remaining: size,
		subAt:     at,
		updAt:     at,
		pos:       len(s.order),
	}
	s.jobs[sr.ID] = r
	s.order = append(s.order, sr.ID)
	s.pend = append(s.pend, r)
	s.npend.Store(int64(len(s.pend)))
	return nil
}

func (s *Store) applyState(tr stateRecord) error {
	r, ok := s.jobs[tr.ID]
	if !ok {
		return fmt.Errorf("%w: state record for unknown job %s", frame.ErrCorrupt, tr.ID)
	}
	if !tr.To.Valid() || !validTransition(r.state, tr.To) {
		return fmt.Errorf("%w: job %s: %s -> %s", ErrTransition, tr.ID, r.state, tr.To)
	}
	if (r.state == StatePending) != (tr.To == StatePending) {
		i, found := slices.BinarySearchFunc(s.pend, r.pos, func(p *jobRec, pos int) int { return p.pos - pos })
		if found {
			s.pend = slices.Delete(s.pend, i, i+1)
		} else {
			s.pend = slices.Insert(s.pend, i, r)
		}
		s.npend.Store(int64(len(s.pend)))
	}
	r.state = tr.To
	r.reason = tr.Reason
	r.updAt = time.Unix(0, tr.At)
	return nil
}

func (s *Store) applyCheckpoint(cr checkpointRecord) error {
	r, ok := s.jobs[cr.ID]
	if !ok {
		return fmt.Errorf("%w: checkpoint for unknown job %s", frame.ErrCorrupt, cr.ID)
	}
	remaining, err := r.checkCheckpoint(&cr.CP)
	if err != nil {
		return fmt.Errorf("%w: %w", frame.ErrCorrupt, err)
	}
	r.cp = cr.CP
	r.remaining = remaining
	r.updAt = time.Unix(0, cr.At)
	return nil
}

// checkCheckpoint is the one gate a job's next checkpoint passes, on the
// live path before it is logged and on replay before it is applied: the
// job is not terminal, tested does not go backwards, and the remaining
// set is sound for the job's space (checkRemaining). It returns the
// remaining identifier count.
func (r *jobRec) checkCheckpoint(cp *dispatch.Checkpoint) (keyspace.ID, error) {
	if r.state.Terminal() {
		return keyspace.ID{}, fmt.Errorf("%w: job %s: checkpoint in terminal state %s", ErrTransition, r.id, r.state)
	}
	if cp.Tested < r.cp.Tested {
		return keyspace.ID{}, fmt.Errorf("jobs: job %s: tested went backwards (%d -> %d)", r.id, r.cp.Tested, cp.Tested)
	}
	remaining, err := checkRemaining(cp, r.space)
	if err != nil {
		return keyspace.ID{}, fmt.Errorf("jobs: job %s: %w", r.id, err)
	}
	return remaining, nil
}

// checkRemaining refuses a checkpoint whose remaining set could make a
// search skip or double identifiers: an interval that is empty or
// inverted, reaches outside [0, space] or overlaps another, or a set that
// with the tested count covers more than the space. The remaining set is
// the sole record of what is left to search, so a bad one fails closed —
// here, not when a lease over it is issued. It returns the remaining
// identifier count.
func checkRemaining(cp *dispatch.Checkpoint, space keyspace.ID) (keyspace.ID, error) {
	for _, iv := range cp.Remaining {
		if iv.Empty() || iv.End.Cmp(space) > 0 {
			return keyspace.ID{}, fmt.Errorf("remaining interval %v is empty or outside the space [0, %s)", iv, space)
		}
	}
	sorted := slices.Clone(cp.Remaining)
	slices.SortFunc(sorted, func(a, b keyspace.Interval) int { return a.Start.Cmp(b.Start) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Start.Cmp(sorted[i-1].End) < 0 {
			return keyspace.ID{}, fmt.Errorf("remaining intervals %v and %v overlap", sorted[i-1], sorted[i])
		}
	}
	remaining := cp.RemainingKeys()
	if covered, over := remaining.Add(keyspace.IDOf(cp.Tested)); over || covered.Cmp(space) > 0 {
		return keyspace.ID{}, fmt.Errorf("tested %d + remaining %s exceeds space %s", cp.Tested, remaining, space)
	}
	return remaining, nil
}

// append frames and logs one record, then applies it. The mutation is
// durable before it is visible. Callers hold s.mu and must have
// validated the mutation — an apply failure after a successful append
// means the in-memory table and the log disagree, which is fatal.
//
// Callers hold Store.mu across the log's fsync by design:
// append-then-apply is the durability contract — a mutation is on disk
// before it is visible, so the commit path pays the fsync under the lock
// rather than expose un-durable state.
//
//keyvet:allow lockorder
func (s *Store) append(typ recType, payload any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	seq, err := s.log.Append(byte(typ), body)
	if err != nil {
		return err
	}
	s.tel.appends.Inc()
	s.tel.bytes.Add(uint64(frame.Overhead + len(body)))
	if err := s.apply(frame.Frame{Type: byte(typ), Seq: seq, Payload: body}); err != nil {
		return fmt.Errorf("jobs: applying own record: %w", err)
	}
	if s.opts.OnAppend != nil {
		s.opts.OnAppend(byte(typ), seq, body)
	}
	s.dirty++
	if s.opts.CompactEvery > 0 && s.dirty >= s.opts.CompactEvery {
		if err := s.compactLocked(); err != nil {
			return fmt.Errorf("jobs: auto-compaction: %w", err)
		}
	}
	return nil
}

// Submit validates and admits a job, returning its snapshot. The ID is
// derived from the WAL sequence, which never repeats within a store
// (compaction preserves the watermark), so IDs are unique for the
// directory's lifetime.
func (s *Store) Submit(tenant string, priority int, spec Spec) (Job, error) {
	if tenant == "" {
		return Job{}, errors.New("jobs: empty tenant")
	}
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("%sj%06d", s.opts.IDPrefix, s.log.Seq()+1)
	sr := submitRecord{ID: id, Tenant: tenant, Priority: priority, Spec: spec, At: s.now().UnixNano()}
	if err := s.append(recSubmit, sr); err != nil {
		return Job{}, err
	}
	return s.snapshotJob(s.jobs[id]), nil
}

// Get returns a job snapshot.
func (s *Store) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.snapshotJob(r), nil
}

// List returns job snapshots in submission order; a non-empty tenant
// filters to that tenant's jobs.
func (s *Store) List(tenant string) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		r := s.jobs[id]
		if tenant != "" && r.tenant != tenant {
			continue
		}
		out = append(out, s.snapshotJob(r))
	}
	return out
}

// Pending returns snapshots of the StatePending jobs in submission
// order. It reads the pending index apply keeps, so admission on the
// lease path costs the same however many terminal jobs the table holds.
func (s *Store) Pending() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, len(s.pend))
	for i, r := range s.pend {
		out[i] = s.snapshotJob(r)
	}
	return out
}

// PendingCount returns the number of jobs in StatePending. It takes no
// lock: the lease path asks it on every lease, and must not wait behind
// an append's fsync to learn that nothing is pending.
func (s *Store) PendingCount() int {
	return int(s.npend.Load())
}

// Count returns the number of jobs in the table, without snapshotting
// them.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Tenants returns the distinct tenant names with jobs in the table.
func (s *Store) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, r := range s.jobs {
		if !seen[r.tenant] {
			seen[r.tenant] = true
			out = append(out, r.tenant)
		}
	}
	sort.Strings(out)
	return out
}

// SetState logs and applies a lifecycle transition.
func (s *Store) SetState(id string, to State, reason string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !to.Valid() || !validTransition(r.state, to) {
		return Job{}, fmt.Errorf("%w: job %s: %s -> %s", ErrTransition, id, r.state, to)
	}
	tr := stateRecord{ID: id, To: to, Reason: reason, At: s.now().UnixNano()}
	if err := s.append(recState, tr); err != nil {
		return Job{}, err
	}
	return s.snapshotJob(r), nil
}

// RecordCheckpoint logs and applies a job's new resumable progress.
// Called after every committed lease, before the commit is acknowledged
// to the scheduler — so a crash at any instant re-searches at most the
// in-flight leases and never loses a committed one.
func (s *Store) RecordCheckpoint(id string, cp *dispatch.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if _, err := r.checkCheckpoint(cp); err != nil {
		return err
	}
	cr := checkpointRecord{ID: id, CP: *cp, At: s.now().UnixNano()}
	return s.append(recCheckpoint, cr)
}

// Progress returns a deep copy of the job's latest checkpoint — the
// scheduler seeds its lease pool from this at resume.
func (s *Store) Progress(id string) (*dispatch.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return dispatch.NewCheckpoint(r.cp.Remaining, r.cp.Tested, r.cp.Found), nil
}

// snapshotJob builds the public view. Callers hold s.mu.
func (s *Store) snapshotJob(r *jobRec) Job {
	j := Job{
		ID:          r.id,
		Tenant:      r.tenant,
		Priority:    r.priority,
		Spec:        r.spec,
		State:       r.state,
		Reason:      r.reason,
		Space:       r.space.String(),
		Tested:      r.cp.Tested,
		Remaining:   r.remaining.String(),
		SubmittedAt: r.subAt,
		UpdatedAt:   r.updAt,
	}
	for _, f := range r.cp.Found {
		j.Found = append(j.Found, string(f))
	}
	return j
}

// Snapshot file format: the job table plus the WAL sequence watermark
// it covers, with a CRC over the canonical encoding. Replay skips
// records at or below Seq, so a crash between snapshot rename and WAL
// truncation applies nothing twice.

type snapJob struct {
	ID          string              `json:"id"`
	Tenant      string              `json:"tenant"`
	Priority    int                 `json:"priority"`
	Spec        Spec                `json:"spec"`
	State       State               `json:"state"`
	Reason      string              `json:"reason,omitempty"`
	CP          dispatch.Checkpoint `json:"cp"`
	SubmittedAt int64               `json:"submitted_at_unix_ns"`
	UpdatedAt   int64               `json:"updated_at_unix_ns"`
}

type snapBody struct {
	Seq  uint64    `json:"seq"`
	Jobs []snapJob `json:"jobs"`
}

type snapEnvelope struct {
	snapBody
	Sum string `json:"sum"`
}

func snapSum(b *snapBody) (string, error) {
	body, err := json.Marshal(b)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(body)), nil
}

// decodeSnapshot parses and checksum-verifies a snapshot encoding.
// Shared by the store's own recovery and the replication follower,
// which must refuse a damaged snapshot with the same rigor.
func decodeSnapshot(data []byte) (*snapEnvelope, error) {
	var env snapEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", frame.ErrCorrupt, err)
	}
	if env.Sum == "" {
		return nil, fmt.Errorf("%w: snapshot: missing checksum", frame.ErrCorrupt)
	}
	want, err := snapSum(&env.snapBody)
	if err != nil {
		return nil, err
	}
	if env.Sum != want {
		return nil, fmt.Errorf("%w: snapshot: checksum mismatch (file %s, content %s)", frame.ErrCorrupt, env.Sum, want)
	}
	seen := make(map[string]bool, len(env.Jobs))
	for _, sj := range env.Jobs {
		if seen[sj.ID] {
			return nil, fmt.Errorf("%w: snapshot job %s: listed twice", frame.ErrCorrupt, sj.ID)
		}
		seen[sj.ID] = true
		space, err := sj.Spec.Space()
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot job %s: %v", frame.ErrCorrupt, sj.ID, err)
		}
		if !sj.State.Valid() {
			return nil, fmt.Errorf("%w: snapshot job %s: invalid state", frame.ErrCorrupt, sj.ID)
		}
		if _, err := checkRemaining(&sj.CP, space.Size()); err != nil {
			return nil, fmt.Errorf("%w: snapshot job %s: %v", frame.ErrCorrupt, sj.ID, err)
		}
	}
	return &env, nil
}

// loadSnapshot populates the table from snapFile if present, returning
// the WAL sequence watermark it covers.
func (s *Store) loadSnapshot() (uint64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	env, err := decodeSnapshot(data)
	if err != nil {
		return 0, err
	}
	for _, sj := range env.Jobs {
		space, err := sj.Spec.Space() // decodeSnapshot has checked each job
		if err != nil {
			return 0, fmt.Errorf("%w: snapshot job %s: %v", frame.ErrCorrupt, sj.ID, err)
		}
		r := &jobRec{
			id:        sj.ID,
			tenant:    sj.Tenant,
			priority:  sj.Priority,
			spec:      sj.Spec,
			state:     sj.State,
			reason:    sj.Reason,
			space:     space.Size(),
			cp:        sj.CP,
			remaining: sj.CP.RemainingKeys(),
			subAt:     time.Unix(0, sj.SubmittedAt),
			updAt:     time.Unix(0, sj.UpdatedAt),
			pos:       len(s.order),
		}
		s.jobs[sj.ID] = r
		// The snapshot lists jobs in table order. Keep it: admission breaks
		// ties by it, and IDs stop sorting in that order past j999999.
		s.order = append(s.order, sj.ID)
		if sj.State == StatePending {
			s.pend = append(s.pend, r)
		}
	}
	s.npend.Store(int64(len(s.pend)))
	return env.Seq, nil
}

// Compact snapshots the table and truncates the WAL.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// encodeSnapshotLocked serializes the current table as a checksummed
// snapshot covering the current WAL watermark. Callers hold s.mu.
func (s *Store) encodeSnapshotLocked() ([]byte, uint64, error) {
	body := snapBody{Seq: s.log.Seq()}
	for _, id := range s.order {
		r := s.jobs[id]
		body.Jobs = append(body.Jobs, snapJob{
			ID:          r.id,
			Tenant:      r.tenant,
			Priority:    r.priority,
			Spec:        r.spec,
			State:       r.state,
			Reason:      r.reason,
			CP:          r.cp,
			SubmittedAt: r.subAt.UnixNano(),
			UpdatedAt:   r.updAt.UnixNano(),
		})
	}
	sum, err := snapSum(&body)
	if err != nil {
		return nil, 0, err
	}
	data, err := json.Marshal(snapEnvelope{snapBody: body, Sum: sum})
	if err != nil {
		return nil, 0, err
	}
	return data, body.Seq, nil
}

// ExportSnapshot returns a checksummed snapshot of the whole table and
// the WAL sequence watermark it covers. Replication senders use it to
// bring a fresh follower to the watermark before tailing live records.
func (s *Store) ExportSnapshot() ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeSnapshotLocked()
}

// compactLocked writes the snapshot atomically, then resets the log.
// The order matters: after the rename the snapshot alone reconstructs the table, so losing the log contents is
// safe; before the rename the old snapshot + full log still does.
//
// The snapshot fsyncs under Store.mu on purpose: compaction must see a
// frozen table, and the store serves reads from memory, so the stall is
// bounded and harmless.
//
//keyvet:allow lockorder
func (s *Store) compactLocked() error {
	data, _, err := s.encodeSnapshotLocked()
	if err != nil {
		return err
	}
	if err := frame.WriteFileAtomic(filepath.Join(s.dir, snapFile), data); err != nil {
		return err
	}
	if err := s.log.Reset(s.log.Seq()); err != nil {
		return err
	}
	s.dirty = 0
	s.tel.snapshots.Inc()
	return nil
}

// Close flushes and releases the WAL. The store must not be used after.
//
// The final fsync runs under Store.mu so no append can race the close;
// the store is shutting down, nothing else wants the lock.
//
//keyvet:allow lockorder
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
