package netproto

import (
	"context"
	"sync/atomic"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// Executor adapts a RemoteWorker to the job service's jobs.Executor
// contract: every Search carries its spec, so one TCP fleet serves any
// number of tenants' jobs concurrently. A lease's spec carries its job's
// jobs.Handle, resolved once by the service: the executor builds the wire
// spec from it in O(1) and hands the call the handle's corpus encoding,
// which the worker proxy transfers at most once per connection. The
// first lease of a job also ties the spec's registration on the worker
// to the handle, so the worker forgets the spec when the job ends.
// Retry, rejoin and heartbeats happen below it, inside RemoteWorker: the
// service sees a failed lease and requeues it, never a torn one.
type Executor struct {
	w *RemoteWorker

	// cur maps the one in-flight live lease (the service serializes
	// leases per executor) to its wire search sequence number, so
	// ShrinkLease can address the running search. Nil between leases.
	cur atomic.Pointer[liveLease]
}

// liveLease pairs a job-service lease ID with the wire seq of the
// search running it.
type liveLease struct {
	leaseID uint64
	seq     uint64
}

// NewExecutor wraps an accepted remote worker as a job-service executor.
func NewExecutor(w *RemoteWorker) *Executor {
	return &Executor{w: w}
}

// Name identifies the underlying worker.
func (e *Executor) Name() string { return e.w.Name() }

// Tune benchmarks the remote worker over jobs.TuneSpec, the space every
// executor tunes on, so a mixed local/remote fleet's balance-rule shares
// are comparable.
func (e *Executor) Tune(ctx context.Context) (core.Tuning, error) {
	ws, _, err := e.bind(jobs.TuneSpec())
	if err != nil {
		return core.Tuning{}, err
	}
	return e.w.TuneSpec(ctx, ws)
}

// Search runs the lease remotely against the job's spec.
func (e *Executor) Search(ctx context.Context, spec jobs.Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	ws, corpus, err := e.bind(spec)
	if err != nil {
		return nil, err
	}
	return e.w.SearchSpecLive(ctx, ws, corpus, iv, e.w.NewSearchSeq(), 0, nil)
}

// SearchLease implements jobs.StealExecutor: the remote search streams
// progress marks at the requested cadence and stays shrinkable through
// ShrinkLease while it runs. Registering the lease→seq mapping BEFORE
// the wire call starts means a steal attempt arriving at any point in
// the search's life finds either the mapping (and shrinks it) or no
// mapping (and is refused) — never a torn state.
func (e *Executor) SearchLease(ctx context.Context, l jobs.Lease, progressEvery time.Duration, onProgress func(done uint64)) (*dispatch.Report, error) {
	ws, corpus, err := e.bind(l.Spec)
	if err != nil {
		return nil, err
	}
	ll := &liveLease{leaseID: l.ID, seq: e.w.NewSearchSeq()}
	e.cur.Store(ll)
	defer e.cur.CompareAndSwap(ll, nil)
	return e.w.SearchSpecLive(ctx, ws, corpus, l.Interval, ll.seq, progressEvery, onProgress)
}

// ShrinkLease implements jobs.StealExecutor by addressing the running
// search's wire seq. A lease that is not currently on the wire — not
// started, already returned — is refused, leaving it unaffected.
func (e *Executor) ShrinkLease(ctx context.Context, leaseID, keep uint64) (uint64, bool) {
	ll := e.cur.Load()
	if ll == nil || ll.leaseID != leaseID {
		return 0, false
	}
	return e.w.Shrink(ctx, ll.seq, keep)
}

// bind resolves spec into its wire form — the space the service's lease
// identifiers are defined over, order included — and the corpus encoding
// the wire spec names, and holds the spec on the worker for as long as
// its job lives.
func (e *Executor) bind(spec jobs.Spec) (JobSpec, []byte, error) {
	h, err := spec.Resolved()
	if err != nil {
		return JobSpec{}, nil, err
	}
	job, space := h.Job(), h.Job().Space
	corpus, corpusID := h.Corpus()
	ws := JobSpec{Algorithm: job.Algorithm, Kind: job.Kind, Target: job.Target, Charset: space.Charset().String(),
		MinLen: space.MinLen(), MaxLen: space.MaxLen(), Order: space.Order(), CorpusID: corpusID}
	id := SpecID(ws)
	h.Hold(e, func() { e.w.hold(id) }, func() { e.w.unhold(id) })
	return ws, corpus, nil
}
