package jobs

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
	"keysearch/internal/sim"
	"keysearch/internal/telemetry"
)

// Executor is a computing resource the job service leases work to. It
// differs from dispatch.Worker in one way: Search takes the job spec,
// because the service multiplexes many specs over one executor where a
// dispatch tree is bound to a single search. The same contract holds:
// on error nothing of the interval counts as searched — the service
// requeues the whole lease.
type Executor interface {
	Name() string
	Tune(ctx context.Context) (core.Tuning, error)
	Search(ctx context.Context, spec Spec, iv keyspace.Interval) (*dispatch.Report, error)
}

// StealExecutor is an Executor whose searches are live: they report
// tested-up-to marks while a lease runs and can be shrunk mid-flight at
// a batch boundary. These are the two hooks the service's automatic
// work stealing needs — progress marks feed victim selection, and the
// shrink handshake moves the split point past whatever the victim has
// already tested before the thief starts on the tail.
// netproto.Executor implements it over protocol v4; executors that do
// not implement it are simply never chosen as steal victims.
type StealExecutor interface {
	Executor

	// SearchLease is Search with the live hooks attached: the underlying
	// worker reports its tested-up-to mark (keys from the interval start)
	// roughly every progressEvery of search time through onProgress,
	// which may be invoked from a connection read loop and must return
	// quickly without calling back into the executor.
	SearchLease(ctx context.Context, l Lease, progressEvery time.Duration, onProgress func(done uint64)) (*dispatch.Report, error)

	// ShrinkLease asks the running search for lease leaseID to stop
	// keep keys from its interval start, returning the boundary the
	// worker committed to — ≥ keep when it had already tested past the
	// requested point — and ok = false if the search could not be shrunk
	// (finished, not started, or unsupported), in which case it still
	// owns its full interval.
	ShrinkLease(ctx context.Context, leaseID, keep uint64) (cut uint64, ok bool)
}

// LocalExecutor runs leases on local goroutines, building (and
// caching) the cracker job for each spec it sees.
type LocalExecutor struct {
	name    string
	workers int

	// Clock stamps Report.Elapsed (nil = the wall clock). Clock-driven
	// tests inject a sim.Virtual so elapsed times are deterministic.
	Clock sim.Clock

	mu    sync.Mutex
	cache map[string]*cracker.Job
}

func (e *LocalExecutor) clock() sim.Clock {
	if e.Clock != nil {
		return e.Clock
	}
	return sim.Wall{}
}

// NewLocalExecutor wraps the in-process CPU engine as an executor.
// workers is the goroutine count (0 = NumCPU).
func NewLocalExecutor(name string, workers int) *LocalExecutor {
	return &LocalExecutor{name: name, workers: workers, cache: make(map[string]*cracker.Job)}
}

// Name identifies the executor.
func (e *LocalExecutor) Name() string { return e.name }

// Tune benchmarks the local engine over a synthetic MD5 space, the
// same doubling-batch fit dispatch.LocalWorker runs.
func (e *LocalExecutor) Tune(ctx context.Context) (core.Tuning, error) {
	sum := md5.Sum([]byte("keysearch-tune"))
	spec := Spec{
		Algorithm: "md5",
		Target:    hex.EncodeToString(sum[:]),
		Charset:   "abcdefghijklmnopqrstuvwxyz0123456789",
		MinLen:    1,
		MaxLen:    8,
	}
	job, err := spec.CrackerJob()
	if err != nil {
		return core.Tuning{}, err
	}
	w := dispatch.NewLocalWorker(e.name, job, e.workers)
	return w.Tune(ctx)
}

// Search exhausts the lease with the cached cracker job for the spec.
func (e *LocalExecutor) Search(ctx context.Context, spec Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	job, err := e.job(spec)
	if err != nil {
		return nil, err
	}
	clk := e.clock()
	start := clk.Now()
	res, err := cracker.CrackAll(ctx, job, iv, core.Options{Workers: e.workers})
	if err != nil {
		return nil, err
	}
	return &dispatch.Report{Found: res.Solutions, Tested: res.Tested, Elapsed: clk.Since(start)}, nil
}

func (e *LocalExecutor) job(spec Spec) (*cracker.Job, error) {
	// Spec.Key covers the corpus too, so a multi-target job's Bloom set is
	// built once and shared by every lease.
	key := spec.Key()
	e.mu.Lock()
	defer e.mu.Unlock()
	if j, ok := e.cache[key]; ok {
		return j, nil
	}
	j, err := spec.CrackerJob()
	if err != nil {
		return nil, err
	}
	e.cache[key] = j
	return j, nil
}

// Options configure the Service.
type Options struct {
	Sched SchedOptions
	// LeaseScale multiplies the balance-rule lease size (default 1).
	// Smaller leases mean finer-grained fairness and preemption at the
	// cost of more WAL checkpoints.
	LeaseScale float64
	// MinLease/MaxLease clamp the lease size (defaults 1 / uncapped).
	MinLease, MaxLease uint64
	// MaxSearchFailures retires an executor after this many consecutive
	// Search errors (default 3); its in-flight lease returns to the
	// pool each time, so a flapping executor costs requeues, not keys.
	MaxSearchFailures int
	// Telemetry receives the scheduler metrics (nil = no-op).
	Telemetry *telemetry.Registry
	// Clock is the service's time source (nil = the wall clock). A
	// sim.Virtual clock bound to a discrete-event engine drives the
	// whole service — scheduler wait metrics, lease timeouts, store
	// record stamps via StoreOptions — in virtual time, which is how
	// internal/fleetsim stress-tests fleet-scale scheduling in
	// milliseconds of host time.
	Clock sim.Clock
	// LeaseTimeout requeues a lease that has neither committed nor
	// failed after this duration on the service clock (0 = never). The
	// lease's interval returns to the pool and a later commit or fail
	// from the original executor is rejected, so crashed or wedged
	// executors cost duplicated work, never duplicated or lost
	// coverage.
	LeaseTimeout time.Duration
	// CheckpointEvery writes the durable per-job checkpoint on every
	// Nth committed lease instead of every one (<=1 = every commit,
	// the default). Completion, solution-bearing commits, and quota
	// stops always checkpoint. Throttling trades crash re-search (up
	// to N-1 committed leases are re-run after a crash) for commit
	// throughput; in-memory accounting stays exact either way.
	CheckpointEvery int
	// OnCommit, when set, observes every committed lease in commit
	// order: it runs under the service lock after the commit is
	// applied (and its checkpoint is durable, unless CheckpointEvery
	// throttled it), so implementations must be fast and must not
	// call back into the Service or Store. Tests use it to audit
	// exactness.
	OnCommit func(jobID, tenant string, iv keyspace.Interval, tested uint64)
	// OnRequeue, when set, observes every interval returned to a
	// job's pool by an executor failure or lease timeout. It runs
	// outside the service lock; manual drivers (internal/fleetsim)
	// use it to wake idle workers when work reappears. It must not
	// block.
	OnRequeue func(jobID string)
	// Steal configures automatic work stealing in the executor loops
	// (Start mode only; manual drivers call Steal themselves).
	Steal StealOptions
}

// StealOptions tune automatic work stealing: when an executor loop goes
// idle with no leasable work, it looks for the worst straggler among
// in-flight leases of steal-enabled jobs (Spec.Steal) on StealExecutor
// fleets and splits its lease at a point past the victim's progress.
// The zero value disables stealing; the non-zero defaults come from the
// fleetsim policy sweep recorded in BENCH_steal.json.
type StealOptions struct {
	// Enabled turns stealing on.
	Enabled bool
	// MinSteal is the smallest tail worth moving: a victim qualifies
	// only while its untested remainder is at least 2×MinSteal, so both
	// halves of the split stay worthwhile (default 4096).
	MinSteal uint64
	// ProgressEvery is the progress-mark cadence requested from live
	// searches; marks feed victim selection, so coarser cadence means
	// staler straggler estimates (default 500ms).
	ProgressEvery time.Duration
}

func (o StealOptions) minSteal() uint64 {
	if o.MinSteal == 0 {
		return 4096
	}
	return o.MinSteal
}

func (o StealOptions) progressEvery() time.Duration {
	if o.ProgressEvery <= 0 {
		return 500 * time.Millisecond
	}
	return o.ProgressEvery
}

func (o Options) leaseScale() float64 {
	if o.LeaseScale <= 0 {
		return 1
	}
	return o.LeaseScale
}

func (o Options) maxFailures() int {
	if o.MaxSearchFailures <= 0 {
		return 3
	}
	return o.MaxSearchFailures
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery <= 1 {
		return 1
	}
	return o.CheckpointEvery
}

// Lease is one unit of issued work: an executor searches Interval on
// behalf of JobID and reports back through Commit or Fail. Leases are
// returned by TryLease (manual drive) and threaded through the
// internal executor loops.
type Lease struct {
	ID       uint64
	JobID    string
	Tenant   string
	Spec     Spec
	Interval keyspace.Interval
	N        uint64
}

// inflightLease is the service-side record of an issued lease. Its
// interval is the live truth — a Steal shrinks it — and the timer, when
// lease timeouts are enabled, requeues it on expiry. Guarded by the
// Service mutex.
type inflightLease struct {
	iv    keyspace.Interval
	n     uint64
	timer sim.Timer

	// exec is the executor index the lease was issued to (victim
	// selection never steals an executor's own lease).
	exec int
	// progress is the latest live tested-up-to mark, keys from iv.Start
	// (monotonic, clamped to n). Zero until the first mark arrives, so a
	// lease whose search has not demonstrably started is never a victim.
	progress uint64
	// stealing pins the lease while a shrink handshake is in flight: it
	// cannot be picked as a victim again and the expiry path defers to
	// the handshake's settle step (which re-arms the timer), so the two
	// can never dispose of the same keys twice.
	stealing bool
	// noSteal marks a lease whose executor refused a shrink handshake;
	// retrying would fail the same way (the search finished or the
	// worker predates the protocol).
	noSteal bool
}

// Service multiplexes jobs over a fleet of executors: admission
// control and fair-share scheduling on the lease path, synchronous WAL
// checkpoints on the commit path, events out the side.
type Service struct {
	store *Store
	execs []Executor
	opts  Options
	clock sim.Clock
	tel   *serviceTelemetry
	hub   *hub

	mu        sync.Mutex
	cond      *sync.Cond
	sched     *scheduler
	active    map[string]*activeJob
	shares    []uint64 // per-executor lease size (balance rule)
	lastJob   []string // per-executor last leased job (preemption metric)
	leaseSeq  uint64
	manual    bool // StartManual: no executor loops, external drive
	draining  bool
	started   bool
	starting  bool // start in progress (tuning runs unlocked)
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewService wires a store and a fleet. Call Start (or StartManual)
// before use.
func NewService(store *Store, execs []Executor, opts Options) *Service {
	clock := opts.Clock
	if clock == nil {
		clock = sim.Wall{}
	}
	s := &Service{
		store:  store,
		execs:  execs,
		opts:   opts,
		clock:  clock,
		tel:    newServiceTelemetry(opts.Telemetry),
		hub:    newHub(),
		sched:  newScheduler(opts.Sched),
		active: make(map[string]*activeJob),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Start tunes the fleet, sizes leases by the balance rule
// N_j = N_max·(X_j/X_max), recovers RUNNING jobs from their last
// checkpoint, and launches the executor loops.
func (s *Service) Start(ctx context.Context) error { return s.start(ctx, false) }

// StartManual prepares the service without launching executor loops:
// tuning, balance-rule lease sizing, and recovery happen exactly as in
// Start, but leases are then pulled with TryLease and settled with
// Commit/Fail/Steal by an external driver. This is the virtual-time
// seam: internal/fleetsim drives the real service — scheduler, store,
// WAL, admission — from a discrete-event engine, one event at a time.
// Tuning runs sequentially (fleet-scale drivers pass cheap synthetic
// tunings, and a goroutine per simulated worker would defeat the
// point).
func (s *Service) StartManual(ctx context.Context) error { return s.start(ctx, true) }

func (s *Service) start(ctx context.Context, manual bool) error {
	s.mu.Lock()
	if s.started || s.starting {
		s.mu.Unlock()
		return errors.New("jobs: service already started")
	}
	s.starting = true
	s.manual = manual
	s.ctx, s.cancel = context.WithCancel(ctx)
	tctx := s.ctx
	s.mu.Unlock()

	// Tuning runs unlocked: executors benchmark real hardware (or wait
	// on a network), and holding the service lock across that would
	// freeze Submit, List, and the event hub for the duration. The
	// starting flag keeps a second Start out; s.execs is immutable
	// after NewService, so reading it here is safe.
	tunings := make([]core.Tuning, len(s.execs))
	if manual {
		for i, ex := range s.execs {
			tn, err := ex.Tune(tctx)
			if err != nil {
				continue // zero tuning: the executor gets no leases
			}
			tunings[i] = tn
		}
	} else {
		var tuneWG sync.WaitGroup
		for i, ex := range s.execs {
			tuneWG.Add(1)
			go func(i int, ex Executor) {
				defer tuneWG.Done()
				tn, err := ex.Tune(tctx)
				if err != nil {
					return // zero tuning: the executor gets no leases
				}
				tunings[i] = tn
			}(i, ex)
		}
		tuneWG.Wait()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.starting = false
	s.shares = make([]uint64, len(s.execs))
	usable := 0
	for i, n := range core.Balance(tunings) {
		n = uint64(float64(n) * s.opts.leaseScale())
		if min := s.opts.MinLease; n < min {
			n = min
		}
		if n == 0 && tunings[i].Throughput > 0 {
			n = 1
		}
		if max := s.opts.MaxLease; max > 0 && n > max {
			n = max
		}
		s.shares[i] = n
		if n > 0 {
			usable++
		}
	}
	if usable == 0 {
		s.cancel()
		return errors.New("jobs: no usable executors (all tunings failed or zero)")
	}
	s.lastJob = make([]string, len(s.execs))

	// Recovery: every RUNNING job resumes from its last checkpoint; its
	// former in-flight leases are inside that checkpoint's remaining
	// set, so they are simply re-leased.
	for _, j := range s.store.List("") {
		if j.State != StateRunning {
			continue
		}
		if err := s.activateLocked(j); err != nil {
			s.cancel()
			return fmt.Errorf("jobs: resuming %s: %w", j.ID, err)
		}
	}
	s.refreshGaugesLocked()

	if !manual {
		for i, ex := range s.execs {
			if s.shares[i] == 0 {
				continue
			}
			s.wg.Add(1)
			go s.runExecutor(i, ex)
		}
		// Wake lease waiters when the context dies.
		go func() {
			<-s.ctx.Done()
			s.cond.Broadcast()
		}()
	}
	s.started = true
	return nil
}

// Shares exposes the per-executor lease sizes chosen at Start
// (diagnostics and tests).
func (s *Service) Shares() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.shares...)
}

// activateLocked builds runtime state for a RUNNING job from its
// durable checkpoint. Callers hold s.mu.
func (s *Service) activateLocked(j Job) error {
	if a, ok := s.active[j.ID]; ok {
		// A pause left leases in flight and the job never drained from
		// the active set. The in-memory pool — not the stored
		// checkpoint, which still counts those leases as remaining — is
		// the live truth; rebuilding from the checkpoint would issue the
		// in-flight intervals a second time.
		a.stopLeasing = false
		s.sched.admit(j.Tenant, s.runnableTenantsLocked())
		s.finishIfDoneLocked(a)
		return nil
	}
	cp, err := s.store.Progress(j.ID)
	if err != nil {
		return err
	}
	ivs, err := cp.Intervals()
	if err != nil {
		return err
	}
	a := &activeJob{
		id:       j.ID,
		tenant:   j.Tenant,
		priority: j.Priority,
		spec:     j.Spec,
		subAt:    j.SubmittedAt,
		pool:     dispatch.NewPool(ivs...),
		inflight: make(map[uint64]*inflightLease),
		tested:   cp.Tested,
		found:    cp.Found,
		maxSol:   j.Spec.MaxSolutions,
	}
	s.active[j.ID] = a
	s.sched.admit(j.Tenant, s.runnableTenantsLocked())
	s.finishIfDoneLocked(a)
	return nil
}

func (s *Service) runnableTenantsLocked() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range s.active {
		if a.runnable() && !seen[a.tenant] {
			seen[a.tenant] = true
			out = append(out, a.tenant)
		}
	}
	return out
}

// admitLocked moves PENDING jobs to RUNNING while admission control
// allows: a global cap on running jobs and a per-tenant quota.
// Admission order is priority, then submission order. The cheap
// pending-count check keeps the no-op case (the common one on the
// lease hot path) off the full table scan.
func (s *Service) admitLocked() {
	if s.draining || s.store.PendingCount() == 0 {
		return
	}
	perTenant := make(map[string]int)
	for _, a := range s.active {
		perTenant[a.tenant]++
	}
	for len(s.active) < s.opts.Sched.maxRunning() {
		var best *Job
		for _, j := range s.store.List("") {
			if j.State != StatePending {
				continue
			}
			if perTenant[j.Tenant] >= s.opts.Sched.tenantQuota() {
				continue
			}
			if best == nil || j.Priority > best.Priority ||
				(j.Priority == best.Priority && j.SubmittedAt.Before(best.SubmittedAt)) {
				jj := j
				best = &jj
			}
		}
		if best == nil {
			return
		}
		j, err := s.store.SetState(best.ID, StateRunning, "")
		if err != nil {
			return
		}
		if err := s.activateLocked(j); err != nil {
			s.store.SetState(best.ID, StateFailed, err.Error())
			s.tel.failed.Inc()
			continue
		}
		perTenant[j.Tenant]++
		s.hub.publish(Event{Type: EventState, Job: j})
	}
}

func (s *Service) refreshGaugesLocked() {
	s.tel.queueDepth.Set(float64(s.store.PendingCount()))
	s.tel.running.Set(float64(len(s.active)))
}

// next blocks until a lease is available for executor i, the service
// drains, or the context dies.
func (s *Service) next(i int) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	waitStart := s.clock.Now()
	for {
		if s.draining || s.ctx.Err() != nil {
			return Lease{}, false
		}
		if l, ok := s.tryLeaseLocked(i, waitStart); ok {
			return l, true
		}
		if s.opts.Steal.Enabled {
			// Idle with no leasable work: try to split the worst
			// straggler's lease instead of waiting behind it. A failed
			// attempt (no victim, refused handshake) falls through to the
			// wait; a refusal that requeued the tail is picked up by
			// tryLeaseLocked on the next iteration.
			if l, ok := s.stealLocked(i); ok {
				return l, true
			}
			if s.draining || s.ctx.Err() != nil {
				return Lease{}, false
			}
			if l, ok := s.tryLeaseLocked(i, waitStart); ok {
				return l, true
			}
		}
		s.cond.Wait()
	}
}

// TryLease issues the next lease for executor exec without blocking:
// the manual-drive (virtual-time) counterpart of the executor loops.
// It returns false when nothing is runnable right now — after a
// requeue or a new submission the driver should try again (the
// OnRequeue hook and job events signal both).
func (s *Service) TryLease(exec int) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.draining || s.ctx.Err() != nil {
		return Lease{}, false
	}
	return s.tryLeaseLocked(exec, s.clock.Now())
}

// tryLeaseLocked picks the next lease for executor i, or reports none
// runnable. Callers hold s.mu.
func (s *Service) tryLeaseLocked(i int, waitStart time.Time) (Lease, bool) {
	if i < 0 || i >= len(s.shares) || s.shares[i] == 0 {
		return Lease{}, false
	}
	for {
		s.admitLocked()
		s.refreshGaugesLocked()
		var runnable []*activeJob
		for _, a := range s.active {
			if a.runnable() {
				runnable = append(runnable, a)
			}
		}
		a := s.sched.pick(runnable)
		if a == nil {
			return Lease{}, false
		}
		iv, ok := a.pool.Claim(s.shares[i])
		if !ok {
			continue
		}
		n, _ := iv.Len64()
		s.leaseSeq++
		l := Lease{ID: s.leaseSeq, JobID: a.id, Tenant: a.tenant, Spec: a.spec, Interval: iv, N: n}
		fl := &inflightLease{iv: iv, n: n, exec: i}
		s.rearmLeaseLocked(a.id, l.ID, fl)
		a.inflight[l.ID] = fl
		s.sched.charge(a.tenant, n)
		s.tel.leases.Inc()
		s.tel.leaseLen.Observe(float64(n))
		s.tel.schedWait.ObserveDuration(s.clock.Since(waitStart))
		if prev := s.lastJob[i]; prev != "" && prev != a.id {
			if pa, ok := s.active[prev]; ok && pa.runnable() {
				// The previous job still had work; the deficit moved this
				// executor to another job at the chunk boundary.
				s.tel.preempted.Inc()
			}
		}
		s.lastJob[i] = a.id
		return l, true
	}
}

// rearmLeaseLocked (re)starts the expiry timer for an in-flight lease
// when lease timeouts are enabled. Callers hold s.mu.
func (s *Service) rearmLeaseLocked(jobID string, leaseID uint64, fl *inflightLease) {
	if d := s.opts.LeaseTimeout; d > 0 {
		fl.timer = s.clock.AfterFunc(d, func() { s.expireLease(jobID, leaseID) })
	}
}

// noteProgress records a live search's tested-up-to mark, feeding
// victim selection. Marks are monotonic and clamped to the lease size
// (a shrunk lease keeps receiving marks from a worker that passed the
// split point). Called from connection read loops; it only touches the
// service lock briefly and never blocks.
func (s *Service) noteProgress(jobID string, leaseID, done uint64) {
	wake := false
	s.mu.Lock()
	if a := s.active[jobID]; a != nil {
		if fl, ok := a.inflight[leaseID]; ok {
			if done > fl.n {
				done = fl.n
			}
			if done > fl.progress {
				// The first mark makes the lease a steal candidate
				// (pickVictimLocked skips progress-less leases); wake any
				// executor that went idle before the search warmed up.
				wake = fl.progress == 0 && a.spec.Steal && s.opts.Steal.Enabled
				fl.progress = done
			}
		}
	}
	s.mu.Unlock()
	if wake {
		s.cond.Broadcast()
	}
}

// expireLease requeues a lease that outlived Options.LeaseTimeout: the
// interval returns to the pool, the tenant's deficit is refunded, and
// any later Commit/Fail for the lease is rejected. Runs on the service
// clock (a goroutine under the wall clock, an engine event under a
// virtual one).
func (s *Service) expireLease(jobID string, leaseID uint64) {
	s.mu.Lock()
	a := s.active[jobID]
	if a == nil {
		s.mu.Unlock()
		return
	}
	fl, ok := a.inflight[leaseID]
	if !ok {
		s.mu.Unlock()
		return
	}
	if fl.stealing {
		// A steal handshake pinned this lease between split and settle;
		// settle re-arms the timer, so deferring here costs at most one
		// extra timeout and can never dispose of keys the handshake is
		// about to move.
		s.mu.Unlock()
		return
	}
	delete(a.inflight, leaseID)
	a.pool.PutBack(fl.iv)
	s.sched.credit(a.tenant, fl.n)
	s.tel.expired.Inc()
	s.dropIfDrainedLocked(a)
	hook := s.opts.OnRequeue
	s.mu.Unlock()
	if hook != nil {
		hook(jobID)
	}
	s.cond.Broadcast()
}

// Fail returns a lease whose executor errored: the interval goes back
// to the pool untested and the tenant's deficit is refunded. A lease
// the timeout already requeued is ignored.
func (s *Service) Fail(l Lease) { s.fail(l) }

func (s *Service) fail(l Lease) {
	s.mu.Lock()
	a := s.active[l.JobID]
	if a == nil {
		s.mu.Unlock()
		return
	}
	fl, ok := a.inflight[l.ID]
	if !ok {
		s.tel.lateCommits.Inc()
		s.mu.Unlock()
		return
	}
	if fl.timer != nil {
		fl.timer.Stop()
	}
	delete(a.inflight, l.ID)
	a.pool.PutBack(fl.iv)
	s.sched.credit(l.Tenant, fl.n)
	s.tel.requeues.Inc()
	s.dropIfDrainedLocked(a)
	hook := s.opts.OnRequeue
	s.mu.Unlock()
	if hook != nil {
		hook(l.JobID)
	}
	s.cond.Broadcast()
}

// Commit lands a completed lease from a manual driver: progress
// accumulates, the job's checkpoint is appended to the WAL (subject to
// CheckpointEvery), and completion is detected. It reports whether the
// commit was accepted — false means the lease was already requeued by
// the timeout (or the job is gone) and the work must be discarded,
// which is how exactly-once coverage survives late arrivals.
func (s *Service) Commit(l Lease, rep *dispatch.Report) bool { return s.commit(l, rep) }

// commit lands a completed lease: progress accumulates, the job's
// checkpoint (remaining = pool ∪ in-flight, tested = committed keys)
// is appended to the WAL before anything acknowledges the work, and
// completion is detected. A crash at ANY point re-searches only leases
// whose checkpoint never landed — committed spans are never re-issued.
func (s *Service) commit(l Lease, rep *dispatch.Report) bool {
	s.mu.Lock()
	a := s.active[l.JobID]
	if a == nil {
		s.mu.Unlock()
		return false
	}
	fl, live := a.inflight[l.ID]
	if !live {
		// The lease timed out and its interval was requeued; accepting
		// this commit would double-count the span when the re-issued
		// lease lands.
		s.tel.lateCommits.Inc()
		s.mu.Unlock()
		return false
	}
	if fl.timer != nil {
		fl.timer.Stop()
	}
	delete(a.inflight, l.ID)
	tested := rep.Tested
	if tested > fl.n {
		// The lease was shrunk by a steal after its worker had already
		// passed the split point: the report covers more keys than the
		// lease now holds. Only the lease's own span counts — the surplus
		// sits inside the stolen tail's lease and is re-searched there,
		// so coverage stays exact (duplicated work, never double-counted
		// keys).
		tested = fl.n
	}
	a.tested += tested
	a.found = append(a.found, rep.Found...)
	a.sinceCP++

	accepted := true
	j, err := s.store.Get(l.JobID)
	if err != nil {
		s.mu.Unlock()
		return false
	}
	var events []Event
	if !j.State.Terminal() {
		exhausted := a.pool.Empty() && len(a.inflight) == 0
		quota := a.maxSol > 0 && len(a.found) >= a.maxSol
		if exhausted || quota || len(rep.Found) > 0 || a.sinceCP >= s.opts.checkpointEvery() {
			remaining := a.pool.Intervals()
			for _, ifl := range a.inflight {
				remaining = append(remaining, ifl.iv)
			}
			cp := dispatch.NewCheckpoint(remaining, a.tested, a.found)
			if cerr := s.store.RecordCheckpoint(l.JobID, cp); cerr != nil {
				// The WAL refused or failed: the job's durable state can no
				// longer be trusted to advance. Fail the job loudly rather
				// than keep burning keys whose coverage would be lost.
				if fj, ferr := s.store.SetState(l.JobID, StateFailed, cerr.Error()); ferr == nil {
					a.stopLeasing = true
					s.tel.failed.Inc()
					events = append(events, Event{Type: EventState, Job: fj})
				}
				accepted = false
			} else {
				a.sinceCP = 0
				s.tel.committed(l.Tenant, tested)
				if s.opts.OnCommit != nil {
					s.opts.OnCommit(l.JobID, l.Tenant, fl.iv, tested)
				}
				j, _ = s.store.Get(l.JobID)
				typ := EventProgress
				if len(rep.Found) > 0 {
					typ = EventFound
				}
				events = append(events, Event{Type: typ, Job: j})
				if de := s.finishIfDoneLocked(a); de != nil {
					events = append(events, *de)
				}
			}
		} else {
			// Throttled: the commit is applied in memory and audited, the
			// durable checkpoint waits for a later commit. A crash before
			// that checkpoint re-searches this span — duplicated work, not
			// duplicated coverage.
			s.tel.committed(l.Tenant, tested)
			if s.opts.OnCommit != nil {
				s.opts.OnCommit(l.JobID, l.Tenant, fl.iv, tested)
			}
			events = append(events, Event{Type: EventProgress, Job: j})
		}
	}
	s.dropIfDrainedLocked(a)
	s.refreshGaugesLocked()
	for _, ev := range events {
		s.hub.publish(ev)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	return accepted
}

// Steal splits a straggler's in-flight lease at an interior boundary:
// the victim's lease shrinks to its first keep identifiers and a new
// lease over the stolen tail is issued to the thief executor. The two
// parts tile the original interval exactly, each with its own lease
// accounting, so exactly-once coverage is preserved by construction —
// split-lease accounting, not coverage bookkeeping after the fact.
//
// Stealing requires the job to opt in (Spec.Steal). In manual drive
// (StartManual) the caller IS the back-channel: it owns both executors
// and shortens the victim's in-progress search to the new boundary
// itself. The internal executor loops steal through the shrink
// handshake instead (Options.Steal); they never call this method. keep
// must leave both halves non-empty (0 < keep < lease size); the caller
// picks it at or past the victim's current progress.
func (s *Service) Steal(victim Lease, keep uint64, thief int) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.manual || s.draining {
		return Lease{}, false
	}
	a := s.active[victim.JobID]
	if a == nil || !a.spec.Steal || a.stopLeasing {
		return Lease{}, false
	}
	fl, ok := a.inflight[victim.ID]
	if !ok || fl.stealing || keep == 0 || keep >= fl.n {
		return Lease{}, false
	}
	nl, nfl := s.splitLeaseLocked(a, fl, keep, thief)
	s.rearmLeaseLocked(a.id, nl.ID, nfl)
	s.tel.steals.Inc()
	s.tel.stolenKeys.Add(nfl.n)
	s.tel.leases.Inc()
	s.tel.leaseLen.Observe(float64(nfl.n))
	return nl, true
}

// splitLeaseLocked carves the tail beyond keep off the in-flight lease
// fl (0 < keep < fl.n) into a fresh lease for executor thief. The two
// halves tile the original interval exactly, each with its own lease
// accounting, so exactly-once coverage is preserved by construction —
// split-lease accounting, not coverage bookkeeping after the fact. The
// tenant was charged for the full original lease at issue time; the
// split moves keys between leases of the same tenant, so the deficit
// stands. Timer management is the caller's: the manual Steal arms the
// tail immediately, the handshake path only once the boundary settles.
func (s *Service) splitLeaseLocked(a *activeJob, fl *inflightLease, keep uint64, thief int) (Lease, *inflightLease) {
	stolenN := fl.n - keep
	split := new(big.Int).Add(fl.iv.Start, new(big.Int).SetUint64(keep))
	stolen := keyspace.Interval{Start: split, End: fl.iv.End}
	fl.iv = keyspace.Interval{Start: fl.iv.Start, End: new(big.Int).Set(split)}
	fl.n = keep

	s.leaseSeq++
	nl := Lease{ID: s.leaseSeq, JobID: a.id, Tenant: a.tenant, Spec: a.spec, Interval: stolen, N: stolenN}
	nfl := &inflightLease{iv: stolen, n: stolenN, exec: thief}
	a.inflight[nl.ID] = nfl
	if thief >= 0 && thief < len(s.lastJob) {
		s.lastJob[thief] = a.id
	}
	return nl, nfl
}

// pickVictimLocked chooses the straggler an idle executor should steal
// from: the live lease with the most remaining wall-clock work by the
// balance-rule estimate (untested keys / victim's share, shares being
// proportional to tuned throughput). Only leases of steal-enabled jobs
// held by OTHER, shrink-capable executors qualify; the lease must have
// shown progress (its search demonstrably started), must not already be
// in a handshake (or have refused one), and its untested remainder must
// be worth splitting (≥ 2×MinSteal). The returned keep splits that
// remainder in half, measured from the victim's last progress mark.
func (s *Service) pickVictimLocked(thief int) (a *activeJob, leaseID uint64, fl *inflightLease, keep uint64, se StealExecutor) {
	minSteal := s.opts.Steal.minSteal()
	var best float64
	for _, cand := range s.active {
		if !cand.spec.Steal || cand.stopLeasing {
			continue
		}
		for id, c := range cand.inflight {
			if c.stealing || c.noSteal || c.exec == thief || c.exec < 0 || c.exec >= len(s.execs) {
				continue
			}
			if c.progress == 0 {
				continue
			}
			rem := c.n - c.progress
			if rem < 2*minSteal {
				continue
			}
			ex, ok := s.execs[c.exec].(StealExecutor)
			if !ok {
				continue
			}
			share := float64(s.shares[c.exec])
			if share <= 0 {
				continue
			}
			if score := float64(rem) / share; fl == nil || score > best {
				a, leaseID, fl, se, best = cand, id, c, ex, score
			}
		}
	}
	if fl == nil {
		return nil, 0, nil, 0, nil
	}
	rem := fl.n - fl.progress
	keep = fl.progress + (rem+1)/2
	if keep == 0 || keep >= fl.n {
		return nil, 0, nil, 0, nil
	}
	return a, leaseID, fl, keep, se
}

// stealLocked attempts one steal for idle executor thief. Called with
// s.mu held; it releases and reacquires the lock around the shrink
// handshake (which blocks on the victim's connection) and returns with
// the lock held either way.
//
// The split happens BEFORE the handshake, under the lock: the victim's
// lease shrinks to [start, keep) and the tail becomes the thief's lease
// immediately, so no disposition racing the handshake — commit, fail,
// or expiry of either half — can lose or double-count keys. The
// handshake then only moves the boundary: an ack at cut > keep hands
// [keep, cut) back to the victim (it had already tested past the split
// point), a refusal merges the halves back in place. The victim's
// expiry timer is paused across the handshake (see expireLease) and
// re-armed at settle.
//
//keyvet:allow lockorder (callers hold s.mu by the *Locked contract; the
// Unlock/Lock pair inside drops it for the blocking handshake, so the
// mutex is never actually held across the RPC or reacquired while held)
func (s *Service) stealLocked(thief int) (Lease, bool) {
	if thief < 0 || thief >= len(s.shares) || s.shares[thief] == 0 {
		return Lease{}, false
	}
	a, victimID, fl, keep, se := s.pickVictimLocked(thief)
	if fl == nil {
		return Lease{}, false
	}
	fl.stealing = true
	if fl.timer != nil {
		fl.timer.Stop()
	}
	nl, nfl := s.splitLeaseLocked(a, fl, keep, thief)
	nfl.stealing = true // pin the tail: no timer, no re-steal, until settled
	jobID, svcCtx := a.id, s.ctx

	s.mu.Unlock()
	cut, ok := se.ShrinkLease(svcCtx, victimID, keep)
	s.mu.Lock()

	return s.settleStealLocked(jobID, victimID, nl, keep, cut, ok)
}

// settleStealLocked finishes a shrink handshake under s.mu. The thief's
// tail lease is pinned (stealing, no timer), so it is still in flight;
// the victim's half may have been disposed of while the lock was
// released — committed exactly at its shrunken size (commit clamps
// Tested to the lease), failed, or expired — and each combination
// settles to exact tiling.
func (s *Service) settleStealLocked(jobID string, victimID uint64, nl Lease, keep, cut uint64, ok bool) (Lease, bool) {
	a := s.active[jobID]
	if a == nil {
		return Lease{}, false
	}
	nfl := a.inflight[nl.ID]
	if nfl == nil {
		return Lease{}, false
	}
	nfl.stealing = false
	fl, victimLive := a.inflight[victimID]
	if victimLive {
		fl.stealing = false
	}

	if ok && cut > keep && cut-keep >= nfl.n {
		// The acked boundary swallows the whole tail; nothing to steal.
		// (The worker only acks cut < its full interval, so this is a
		// defensive guard, not an expected path.)
		ok = false
	}
	if !ok {
		// Refused (the search finished, never started, or the worker
		// predates the protocol) or timed out: the victim still owns its
		// full original interval. If its shrunken lease is still live,
		// merge the halves back in place and don't pick it again; if it
		// was disposed of meanwhile, its disposition covered only the
		// shrunken head, so the tail returns to the pool for re-lease.
		delete(a.inflight, nl.ID)
		if victimLive {
			fl.noSteal = true
			fl.iv = keyspace.Interval{Start: fl.iv.Start, End: nfl.iv.End}
			fl.n += nfl.n
			s.rearmLeaseLocked(jobID, victimID, fl)
		} else {
			a.pool.PutBack(nfl.iv)
			s.sched.credit(nl.Tenant, nfl.n)
			s.tel.requeues.Inc()
			s.dropIfDrainedLocked(a)
			s.cond.Broadcast()
		}
		return Lease{}, false
	}

	if cut > keep {
		// The victim had already tested past the requested split point;
		// the effective boundary moves [keep, cut) out of the tail. If
		// the victim's lease is still live it grows to match, so its
		// commit stays exact; if not, its disposition already settled the
		// head and the thief re-searches [keep, cut) — duplicated work,
		// never a gap.
		extra := cut - keep
		if victimLive {
			fl.iv = keyspace.Interval{Start: fl.iv.Start, End: new(big.Int).Add(fl.iv.Start, new(big.Int).SetUint64(cut))}
			fl.n = cut
			nfl.iv = keyspace.Interval{Start: new(big.Int).Set(fl.iv.End), End: nfl.iv.End}
			nfl.n -= extra
		}
	}
	if victimLive {
		s.rearmLeaseLocked(jobID, victimID, fl)
	}
	s.rearmLeaseLocked(jobID, nl.ID, nfl)
	nl.Interval = nfl.iv
	nl.N = nfl.n
	s.tel.steals.Inc()
	s.tel.stolenKeys.Add(nfl.n)
	s.tel.leases.Inc()
	s.tel.leaseLen.Observe(float64(nfl.n))
	return nl, true
}

// finishIfDoneLocked transitions a job to DONE when its keyspace is
// exhausted or its solution quota is met, returning the event to
// publish.
func (s *Service) finishIfDoneLocked(a *activeJob) *Event {
	exhausted := a.pool.Empty() && len(a.inflight) == 0
	quota := a.maxSol > 0 && len(a.found) >= a.maxSol
	if !exhausted && !quota {
		return nil
	}
	reason := ""
	if quota && !exhausted {
		reason = fmt.Sprintf("solution quota met (%d found)", len(a.found))
	}
	j, err := s.store.SetState(a.id, StateDone, reason)
	if err != nil {
		return nil
	}
	a.stopLeasing = true
	s.tel.completed.Inc()
	s.dropIfDrainedLocked(a)
	return &Event{Type: EventState, Job: j}
}

// dropIfDrainedLocked removes a no-longer-leasing job from the active
// set once its in-flight leases are gone, freeing its admission slot.
func (s *Service) dropIfDrainedLocked(a *activeJob) {
	if a.stopLeasing && len(a.inflight) == 0 {
		delete(s.active, a.id)
	}
}

func (s *Service) runExecutor(i int, ex Executor) {
	defer s.wg.Done()
	se, liveCapable := ex.(StealExecutor)
	live := liveCapable && s.opts.Steal.Enabled
	failures := 0
	for {
		l, ok := s.next(i)
		if !ok {
			return
		}
		var rep *dispatch.Report
		var err error
		if live {
			jobID, leaseID := l.JobID, l.ID
			rep, err = se.SearchLease(s.ctx, l, s.opts.Steal.progressEvery(), func(done uint64) {
				s.noteProgress(jobID, leaseID, done)
			})
		} else {
			rep, err = ex.Search(s.ctx, l.Spec, l.Interval)
		}
		if err != nil || rep == nil {
			s.fail(l)
			failures++
			if s.ctx.Err() != nil || failures >= s.opts.maxFailures() {
				return
			}
			continue
		}
		failures = 0
		s.commit(l, rep)
	}
}

// Submit validates and enqueues a job.
func (s *Service) Submit(tenant string, priority int, spec Spec) (Job, error) {
	j, err := s.store.Submit(tenant, priority, spec)
	if err != nil {
		return Job{}, err
	}
	s.tel.submitted.Inc()
	s.hub.publish(Event{Type: EventSubmitted, Job: j})
	s.cond.Broadcast()
	return j, nil
}

// Get returns a job snapshot.
func (s *Service) Get(id string) (Job, error) { return s.store.Get(id) }

// List returns jobs in submission order, optionally filtered by tenant.
func (s *Service) List(tenant string) []Job { return s.store.List(tenant) }

// Watch subscribes to a job's events ("" = all jobs).
func (s *Service) Watch(jobID string) (<-chan Event, func()) {
	return s.hub.subscribe(jobID, 64)
}

// Pause stops new leases for the job; in-flight leases run to their
// chunk boundary and still commit. Valid from PENDING or RUNNING.
func (s *Service) Pause(id string) (Job, error) {
	s.mu.Lock()
	j, err := s.store.SetState(id, StatePaused, "")
	if err == nil {
		if a, ok := s.active[id]; ok {
			a.stopLeasing = true
			s.dropIfDrainedLocked(a)
		}
		s.hub.publish(Event{Type: EventState, Job: j})
		s.refreshGaugesLocked()
	}
	s.mu.Unlock()
	return j, err
}

// Resume re-queues a PAUSED job through admission control.
func (s *Service) Resume(id string) (Job, error) {
	s.mu.Lock()
	j, err := s.store.SetState(id, StatePending, "")
	if err == nil {
		s.hub.publish(Event{Type: EventState, Job: j})
	}
	s.mu.Unlock()
	if err == nil {
		s.cond.Broadcast()
	}
	return j, err
}

// Cancel terminates a job. In-flight leases finish their chunk but
// their results are discarded (the job is terminal; no further
// checkpoint lands).
func (s *Service) Cancel(id, reason string) (Job, error) {
	s.mu.Lock()
	j, err := s.store.SetState(id, StateCancelled, reason)
	if err == nil {
		if a, ok := s.active[id]; ok {
			a.stopLeasing = true
			s.dropIfDrainedLocked(a)
		}
		s.tel.cancelled.Inc()
		s.hub.publish(Event{Type: EventState, Job: j})
		s.refreshGaugesLocked()
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	return j, err
}

// Shutdown drains gracefully: admission and leasing stop, in-flight
// leases run to their chunk boundary and checkpoint as usual, then the
// WAL is flushed and closed. If ctx expires first, in-flight leases
// are cancelled hard — their intervals are still in every job's
// checkpointed remaining set, so nothing is lost either way. Manual
// drivers must finish driving before calling Shutdown; their
// outstanding leases are covered by the same checkpoint argument.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return errors.New("jobs: service not started")
	}
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel()
		<-done
	}
	s.cancel()
	s.hub.close()
	var err error
	s.closeOnce.Do(func() { err = s.store.Close() })
	return err
}

// Kill simulates a crash for tests: executors are cancelled, nothing
// drains, nothing is flushed beyond what commit already made durable,
// and the store file handles are simply abandoned. After Kill, reopen
// the directory with Open/NewService to exercise recovery.
func (s *Service) Kill() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.cond.Broadcast()
	s.wg.Wait()
	s.hub.close()
}
