package netproto

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/targetset"
)

// Executor adapts a RemoteWorker to the job service's jobs.Executor
// contract: every Search carries its spec, so one TCP fleet serves any
// number of tenants' jobs concurrently. The spec rides to the worker at
// most once per connection (see RemoteWorker) — and for a multi-target
// spec the corpus blob is built and registered once here, then streamed
// to the worker ahead of the spec. Retry, rejoin and heartbeats happen
// below it, inside RemoteWorker: the service sees a failed lease and
// requeues it, never a torn one.
type Executor struct {
	w *RemoteWorker

	// cur maps the one in-flight live lease (the service serializes
	// leases per executor) to its wire search sequence number, so
	// ShrinkLease can address the running search. Nil between leases.
	cur atomic.Pointer[liveLease]

	mu sync.Mutex
	// specs caches wire conversions by jobs.Spec.Key() (a spec with a
	// million-digest corpus hashes its targets into the key rather than
	// carrying them).
	specs map[string]JobSpec
}

// liveLease pairs a job-service lease ID with the wire seq of the
// search running it.
type liveLease struct {
	leaseID uint64
	seq     uint64
}

// NewExecutor wraps an accepted remote worker as a job-service executor.
func NewExecutor(w *RemoteWorker) *Executor {
	return &Executor{w: w, specs: make(map[string]JobSpec)}
}

// Name identifies the underlying worker.
func (e *Executor) Name() string { return e.w.Name() }

// Tune benchmarks the remote worker over jobs.TuneSpec, the space every
// executor tunes on, so a mixed local/remote fleet's balance-rule shares
// are comparable.
func (e *Executor) Tune(ctx context.Context) (core.Tuning, error) {
	spec, err := e.wireSpec(jobs.TuneSpec())
	if err != nil {
		return core.Tuning{}, err
	}
	return e.w.TuneSpec(ctx, spec)
}

// Search runs the lease remotely against the job's spec.
func (e *Executor) Search(ctx context.Context, spec jobs.Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	ws, err := e.wireSpec(spec)
	if err != nil {
		return nil, err
	}
	return e.w.SearchSpec(ctx, ws, iv)
}

// SearchLease implements jobs.StealExecutor: the remote search streams
// progress marks at the requested cadence and stays shrinkable through
// ShrinkLease while it runs. Registering the lease→seq mapping BEFORE
// the wire call starts means a steal attempt arriving at any point in
// the search's life finds either the mapping (and shrinks it) or no
// mapping (and is refused) — never a torn state.
func (e *Executor) SearchLease(ctx context.Context, l jobs.Lease, progressEvery time.Duration, onProgress func(done uint64)) (*dispatch.Report, error) {
	ws, err := e.wireSpec(l.Spec)
	if err != nil {
		return nil, err
	}
	ll := &liveLease{leaseID: l.ID, seq: e.w.NewSearchSeq()}
	e.cur.Store(ll)
	defer e.cur.CompareAndSwap(ll, nil)
	return e.w.SearchSpecLive(ctx, ws, l.Interval, ll.seq, progressEvery, onProgress)
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

func (e *Executor) wireSpec(spec jobs.Spec) (JobSpec, error) {
	key := spec.Key()
	e.mu.Lock()
	defer e.mu.Unlock()
	if ws, ok := e.specs[key]; ok {
		return ws, nil
	}
	ws, blob, err := WireSpec(spec)
	if err == nil {
		if blob != nil {
			e.w.RegisterCorpus(blob)
		}
		e.specs[key] = ws
	}
	return ws, err
}

// WireSpec converts an API-level job spec to its wire form. The order
// must stay PrefixMajor: the service's interval identifiers are defined
// over jobs.Spec.Space and the worker must map them to the same keys.
// For a multi-target spec the returned blob is the canonical targetset
// encoding the worker needs (register it with RemoteWorker.RegisterCorpus
// before calling); it is nil in single-target mode.
func WireSpec(spec jobs.Spec) (JobSpec, []byte, error) {
	alg, err := cracker.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return JobSpec{}, nil, err
	}
	ws := JobSpec{
		Algorithm: alg,
		Kind:      cracker.KernelOptimized,
		Charset:   spec.Charset,
		MinLen:    spec.MinLen,
		MaxLen:    spec.MaxLen,
		Order:     keyspace.PrefixMajor,
	}
	if spec.MultiTarget() {
		digests, err := spec.TargetDigests()
		if err != nil {
			return JobSpec{}, nil, err
		}
		set, err := targetset.Build(digests, targetset.Options{})
		if err != nil {
			return JobSpec{}, nil, err
		}
		blob := set.Encode()
		ws.CorpusID = targetset.ID(blob)
		return ws, blob, nil
	}
	target, err := hex.DecodeString(spec.Target)
	if err != nil || len(target) != alg.DigestSize() {
		return JobSpec{}, nil, fmt.Errorf("netproto: bad %s digest %q", spec.Algorithm, spec.Target)
	}
	ws.Target = target
	return ws, nil, nil
}
