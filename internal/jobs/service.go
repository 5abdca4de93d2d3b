package jobs

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"keysearch/internal/core"
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

// ErrExecutorGone is wrapped by a Search error that means the executor
// itself is gone — a remote worker whose connection dropped and did not
// rejoin in its retry window — rather than that one search failed. The
// service requeues the lease and retires the executor at once instead of
// leasing to it again until MaxSearchFailures is reached.
var ErrExecutorGone = errors.New("jobs: executor gone")

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

// LocalExecutor runs leases on local goroutines, on the cracker job each
// lease's spec resolves to (built once per job, see Handle).
type LocalExecutor struct {
	name    string
	workers int

	// Clock stamps Report.Elapsed (nil = the wall clock). Clock-driven
	// tests inject a sim.Virtual so elapsed times are deterministic.
	Clock sim.Clock
}

// NewLocalExecutor wraps the in-process CPU engine as an executor.
// workers is the goroutine count (0 = NumCPU).
func NewLocalExecutor(name string, workers int) *LocalExecutor {
	return &LocalExecutor{name: name, workers: workers}
}

// Name identifies the executor.
func (e *LocalExecutor) Name() string { return e.name }

// Tune benchmarks the local engine over TuneSpec with the doubling-batch
// fit dispatch.LocalWorker runs.
func (e *LocalExecutor) Tune(ctx context.Context) (core.Tuning, error) {
	job, err := TuneSpec().CrackerJob()
	if err != nil {
		return core.Tuning{}, err
	}
	return dispatch.NewLocalWorker(e.name, job, e.workers).Tune(ctx)
}

// TuneSpec is the synthetic job every executor's Tune benchmarks — local
// engine or remote worker alike — so the balance-rule shares of a mixed
// fleet are measured over one space and stay comparable.
func TuneSpec() Spec {
	sum := md5.Sum([]byte("keysearch-tune"))
	return Spec{
		Algorithm: "md5",
		Target:    hex.EncodeToString(sum[:]),
		Charset:   "abcdefghijklmnopqrstuvwxyz0123456789",
		MinLen:    1,
		MaxLen:    8,
	}
}

// Search exhausts the lease with the spec's cracker job.
func (e *LocalExecutor) Search(ctx context.Context, spec Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	job, err := spec.CrackerJob()
	if err != nil {
		return nil, err
	}
	clock := e.Clock
	if clock == nil {
		clock = sim.Wall{}
	}
	return dispatch.SearchLocal(ctx, clock, job, iv, core.Options{Workers: e.workers})
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
	// An error wrapping ErrExecutorGone retires it on the first.
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
	// CheckpointEvery writes the durable per-job checkpoint once N
	// committed leases have gathered since the last one, instead of on
	// every flush (<=1 = every flush, the default). Completion, solution-bearing commits, and quota
	// stops always checkpoint. Throttling trades crash re-search (up
	// to N-1 committed leases are re-run after a crash) for commit
	// throughput; in-memory accounting stays exact either way.
	CheckpointEvery int
	// OnCommit, when set, observes every committed lease in commit
	// order: it runs under the service lock once the flush covering the
	// lease has made its checkpoint durable (unless CheckpointEvery
	// deferred it), so implementations must be fast and must not call
	// back into the Service or Store. Tests use it to audit exactness.
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

// stopTimer cancels a lease's expiry timer, if it has one.
func stopTimer(le *liveLease) {
	if le.State.timer != nil {
		le.State.timer.Stop()
	}
}

// Service multiplexes jobs over a fleet of executors: admission
// control and fair-share scheduling on the lease path, group-committed
// WAL checkpoints on the commit path, events out the side. The lease and
// flush lifecycle is one state machine (lifecycle); the service drives
// it from its goroutines and performs what each transition asks.
type Service struct {
	store *Store
	execs []Executor
	opts  Options
	clock sim.Clock
	tel   *serviceTelemetry
	hub   *hub

	mu        sync.Mutex
	cond      *sync.Cond // lease waiters
	flushCond *sync.Cond // Commit and the flusher, waiting on a flush or a batch
	life      *lifecycle
	started   bool
	starting  bool // start in progress (tuning runs unlocked)
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	loopsDone chan struct{} // closed when every executor loop has returned
	closeOnce sync.Once

	// loops is the per-executor state of the executor loops (Start mode).
	loops []execLoop
	// In Start mode the flusher goroutine writes every batch; loopsEnded
	// tells it the executor loops have returned, and it closes
	// flusherDone when it returns.
	loopsEnded  bool
	flusherDone chan struct{}
}

// loopsPerExecutor is the number of executor loops per executor: one
// searches, and the other holds the executor's next lease queued behind
// that search, so the worker gets its next request the moment it answers
// and the last lease commits while the next one searches.
const loopsPerExecutor = 2

// execLoop is what an executor's loops share. queue admits one loop at a
// time to lease and wait for the token, so leases start in the order
// they were issued; token admits one search at a time. failures (guarded
// by token) counts the executor's consecutive failed searches.
type execLoop struct {
	queue    chan struct{}
	token    chan struct{}
	failures int
}

// NewService wires a store and a fleet. Call Start (or StartManual)
// before use.
func NewService(store *Store, execs []Executor, opts Options) *Service {
	clock := opts.Clock
	if clock == nil {
		clock = sim.Wall{}
	}
	s := &Service{
		store: store,
		execs: execs,
		opts:  opts,
		clock: clock,
		tel:   newServiceTelemetry(opts.Telemetry),
		hub:   newHub(),
		life: &lifecycle{
			sched:    newScheduler(opts.Sched),
			active:   make(map[string]*activeJob),
			every:    opts.checkpointEvery(),
			minSteal: opts.Steal.minSteal(),
		},

		loopsDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.flushCond = sync.NewCond(&s.mu)
	s.flusherDone = make(chan struct{})
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
func (s *Service) StartManual(ctx context.Context) error { return s.start(ctx, true) }

func (s *Service) start(ctx context.Context, manual bool) (err error) {
	s.mu.Lock()
	if s.started || s.starting {
		s.mu.Unlock()
		return errors.New("jobs: service already started")
	}
	s.starting = true
	s.ctx, s.cancel = context.WithCancel(ctx)
	tctx := s.ctx
	s.mu.Unlock()

	// Tuning runs unlocked: executors benchmark real hardware (or wait
	// on a network), and holding the service lock across that would
	// freeze Submit, List, and the event hub for the duration. The
	// starting flag keeps a second Start out; s.execs is immutable
	// after NewService, so reading it here is safe.
	tunings := dispatch.TuneAll(tctx, s.execs)

	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		if err != nil {
			close(s.flusherDone) // no flusher runs; Kill does not wait for one
		}
	}()
	s.starting = false
	shares := dispatch.Shares(tunings, s.opts.LeaseScale, s.opts.MinLease, s.opts.MaxLease)
	if !slices.ContainsFunc(shares, func(n uint64) bool { return n > 0 }) {
		s.cancel()
		return errors.New("jobs: no usable executors (all tunings failed or zero)")
	}

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
	lc := s.life
	lc.shares, lc.shrink, lc.retired, lc.lastJob = shares, make([]bool, len(shares)), make([]bool, len(shares)), make([]string, len(shares))
	for i, ex := range s.execs {
		_, lc.shrink[i] = ex.(StealExecutor)
	}
	s.refreshGaugesLocked()

	// Halt leasing and wake every waiter when the context dies.
	context.AfterFunc(s.ctx, func() {
		s.mu.Lock()
		s.life.halted = true
		s.flushCond.Broadcast()
		s.mu.Unlock()
		s.cond.Broadcast()
	})
	if !manual {
		s.loops = make([]execLoop, len(s.execs))
		for i, ex := range s.execs {
			if shares[i] == 0 {
				continue
			}
			s.loops[i].queue = make(chan struct{}, 1)
			s.loops[i].token = make(chan struct{}, 1)
			for range loopsPerExecutor {
				s.wg.Add(1)
				go s.runExecutor(i, ex)
			}
		}
		go s.runFlusher()
	} else {
		close(s.flusherDone)
	}
	go func() {
		s.wg.Wait()
		s.mu.Lock()
		s.loopsEnded = true
		s.flushCond.Broadcast()
		s.mu.Unlock()
		<-s.flusherDone
		close(s.loopsDone)
	}()
	s.started = true
	return nil
}

// ExecutorsDone is closed once every executor loop has returned and the
// commits they settled are flushed: at shutdown, or because each executor
// was retired (after MaxSearchFailures consecutive failures, or gone), or
// because the WAL died — RUNNING jobs then keep their remaining sets with
// nobody left to lease them to, so a caller waiting on one should stop.
// Under StartManual there are no loops and it is closed from the start.
func (s *Service) ExecutorsDone() <-chan struct{} { return s.loopsDone }

// Shares exposes the per-executor lease sizes chosen at Start
// (diagnostics and tests).
func (s *Service) Shares() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.life.shares...)
}

// activateLocked makes a RUNNING job schedulable: admission, resume and
// recovery all pass through here. Callers hold s.mu.
func (s *Service) activateLocked(j Job) error {
	a := s.life.resume(j.ID)
	if a == nil {
		cp, err := s.store.Progress(j.ID)
		if err != nil {
			return err
		}
		a = s.life.activate(j, cp)
	}
	s.finishIfDoneLocked(a)
	return nil
}

// admitLocked moves PENDING jobs to RUNNING while admission control
// allows: a global cap on running jobs and a per-tenant quota.
// Admission order is priority, then earliest SubmittedAt, then table
// order. It reads only the store's pending index, so its cost does not
// grow with the terminal jobs the table holds.
func (s *Service) admitLocked() {
	if s.life.halted || s.store.PendingCount() == 0 {
		return
	}
	perTenant := make(map[string]int)
	for _, a := range s.life.active {
		perTenant[a.tenant]++
	}
	for len(s.life.active) < s.opts.Sched.maxRunning() {
		var best *Job
		for _, j := range s.store.Pending() {
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
	s.tel.running.Set(float64(len(s.life.active)))
}

// next blocks until a lease is available for executor i, or i may lease
// no more. Only when the executor is idle — no lease of its searching —
// does it reclaim a lease queued on another executor, or steal.
func (s *Service) next(i int) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	waitStart := s.clock.Now()
	for s.life.mayLease(i) {
		if l, ok := s.issueLocked(i, phaseQueued, waitStart); ok {
			return l, true
		}
		idle, r := s.life.reclaim(i)
		if s.requeuedLocked(r, nil) {
			continue
		}
		if idle && s.opts.Steal.Enabled {
			// Idle with no leasable work: split the worst straggler's lease
			// instead of waiting behind it. A refusal that requeued the
			// tail is picked up by the issue that follows.
			if l, ok := s.stealLocked(i); ok || !s.life.mayLease(i) {
				return l, ok
			}
			if l, ok := s.issueLocked(i, phaseQueued, waitStart); ok {
				return l, true
			}
		}
		if hook := testHookIdle.Load(); hook != nil {
			(*hook)()
		}
		s.cond.Wait()
	}
	return Lease{}, false
}

// testHookIdle, when set, runs in next with s.mu held, after an executor
// found nothing to lease and before it waits: the window in which a
// wakeup that does not take s.mu is lost.
var testHookIdle atomic.Pointer[func()]

// TryLease issues the next lease for executor exec without blocking:
// the manual-drive (virtual-time) counterpart of the executor loops.
// It returns false when nothing is runnable right now — after a
// requeue or a new submission the driver should try again (the
// OnRequeue hook and job events signal both).
func (s *Service) TryLease(exec int) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.issueLocked(exec, phaseIssued, s.clock.Now())
}

// issueLocked admits what admission control allows and issues executor i
// its next lease, in phase ph. Callers hold s.mu.
func (s *Service) issueLocked(i int, ph phase, waitStart time.Time) (Lease, bool) {
	if !s.life.mayLease(i) {
		return Lease{}, false
	}
	s.admitLocked()
	s.refreshGaugesLocked()
	le, preempted := s.life.issue(i, ph)
	if le == nil {
		return Lease{}, false
	}
	l := s.handOutLocked(le, false)
	s.tel.schedWait.ObserveDuration(s.clock.Since(waitStart))
	if preempted {
		s.tel.preempted.Inc()
	}
	return l, true
}

// handOutLocked arms a new lease's timer and counts it, and a stolen
// tail as a steal. Callers hold s.mu.
func (s *Service) handOutLocked(le *liveLease, stolen bool) Lease {
	s.armLocked(le)
	s.tel.leases.Inc()
	s.tel.leaseLen.Observe(float64(le.N))
	if stolen {
		s.tel.steals.Inc()
		s.tel.stolenKeys.Add(le.N)
	}
	return leaseOf(le)
}

// armLocked (re)starts a live lease's expiry timer when lease timeouts
// are enabled. Callers hold s.mu.
func (s *Service) armLocked(le *liveLease) {
	if d := s.opts.LeaseTimeout; d > 0 {
		jobID, leaseID := le.State.job.id, le.ID
		le.State.timer = s.clock.AfterFunc(d, func() { s.expireLease(jobID, leaseID) })
	}
}

// noteProgress records a live search's tested-up-to mark. Called from
// connection read loops; it only touches the service lock briefly.
func (s *Service) noteProgress(jobID string, leaseID, done uint64) {
	s.mu.Lock()
	// The first mark makes a steal candidate: wake executors gone idle.
	wake := s.life.progress(jobID, leaseID, done) && s.opts.Steal.Enabled
	s.mu.Unlock()
	if wake {
		s.cond.Broadcast()
	}
}

// requeuedLocked finishes a requeue, if there was one: the timer stops, an
// incident counts under counter, lease waiters wake. Callers hold s.mu.
func (s *Service) requeuedLocked(r requeue, counter *telemetry.Counter) bool {
	if r.le == nil {
		return false
	}
	stopTimer(r.le)
	if r.incident {
		counter.Inc()
		s.tel.requeued.Add(r.le.N)
	}
	s.releaseLocked(r.le.State.job)
	s.cond.Broadcast()
	return true
}

// releaseLocked releases the handle of a job that left the active set.
func (s *Service) releaseLocked(a *activeJob) {
	if a != nil && s.life.active[a.id] != a {
		a.spec.h.release()
	}
}

// expireLease requeues a lease that outlived Options.LeaseTimeout; any
// later Commit/Fail for it is rejected. Runs on the service clock (a
// goroutine under the wall clock, an engine event under a virtual one).
func (s *Service) expireLease(jobID string, leaseID uint64) {
	s.mu.Lock()
	requeued := s.requeuedLocked(s.life.expire(jobID, leaseID), s.tel.expired)
	s.mu.Unlock()
	if requeued && s.opts.OnRequeue != nil {
		s.opts.OnRequeue(jobID)
	}
}

// Fail returns a lease whose executor errored: the interval goes back
// to the pool untested and the tenant's deficit is refunded. A lease
// the timeout already requeued is ignored.
func (s *Service) Fail(l Lease) {
	s.mu.Lock()
	r, late := s.life.fail(l)
	if late {
		s.tel.lateCommits.Inc()
	}
	requeued := s.requeuedLocked(r, s.tel.requeues)
	s.mu.Unlock()
	if requeued && s.opts.OnRequeue != nil {
		s.opts.OnRequeue(l.JobID)
	}
}

// Commit lands a completed lease: its keys count, the job's checkpoint
// (the lease table's Remaining, tested = committed keys) is appended to
// the WAL (subject to CheckpointEvery), and only once that append is
// durable is the commit acknowledged: OnCommit, events, tenant charging
// and completion. A crash at ANY point re-searches only leases whose
// checkpoint never landed — committed spans are never re-issued. It
// reports whether the commit was accepted — false means the lease was
// already requeued by the timeout (or the job is gone, or its checkpoint
// could not be written, or the report tested fewer keys than the lease
// holds, which requeues it now) and the work must be discarded, which is
// how exactly-once coverage survives late arrivals and short reports.
//
// Commit waits for the flush that covers its lease, and runs that flush
// itself when no other one is running; a lone caller — manual drive — is
// a batch of one.
func (s *Service) Commit(l Lease, rep *dispatch.Report) bool { return s.commit(l, rep, true) }

// commit settles lease l and, if wait, waits for its flush (see Commit).
// The executor loops do not wait: the flusher writes their batches.
func (s *Service) commit(l Lease, rep *dispatch.Report, wait bool) bool {
	s.mu.Lock()
	le, late, r := s.life.settle(l, rep)
	if late {
		s.tel.lateCommits.Inc()
	}
	if s.requeuedLocked(r, s.tel.requeues) {
		s.mu.Unlock()
		if s.opts.OnRequeue != nil {
			s.opts.OnRequeue(l.JobID)
		}
		return false
	}
	if le != nil {
		stopTimer(le)
		s.flushCond.Broadcast()
	}
	for wait && le != nil && le.State.phase < phaseAcked {
		if s.life.flushing {
			s.flushCond.Wait()
			continue
		}
		s.mu.Unlock()
		s.flush()
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	return le != nil && (le.State.phase == phaseAcked || le.State.phase == phaseDiscarded)
}

// flush writes and acknowledges every lease settled since the last flush
// began, unless another flush is running or nothing is pending. Whoever
// flushes takes the whole batch: one checkpoint per job, the job's full
// remaining set, so the batch is one ordinary record and one fsync, and
// s.mu is released across the store writes, so leases are issued and
// the next batch settles while the fsync runs.
func (s *Service) flush() {
	s.mu.Lock()
	batch, fl := s.life.flushStart()
	if batch == nil {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	for _, f := range fl {
		if f.cp != nil {
			f.err = s.store.RecordCheckpoint(f.a.id, f.cp)
		}
		if f.err == nil {
			f.job, f.err = s.store.Get(f.a.id)
		}
	}
	s.mu.Lock()
	s.life.flushDone(batch, fl)
	for _, le := range batch {
		if a := le.State.job; le.State.phase == phaseAcked {
			s.tel.committed(a.tenant, le.State.progress)
			if s.opts.OnCommit != nil {
				s.opts.OnCommit(a.id, a.tenant, le.Interval, le.State.progress)
			}
		}
	}
	for _, f := range fl {
		switch {
		case f.phase == phaseFailed:
			if j, ok := s.writeStateLocked(f.a.id, StateFailed, f.err.Error()); ok {
				s.tel.failed.Inc()
				s.hub.publish(Event{Type: EventState, Job: j})
			}
		case f.phase == phaseAcked && f.cp != nil && f.found:
			s.hub.publish(Event{Type: EventFound, Job: f.job})
		case f.phase == phaseAcked:
			s.hub.publish(Event{Type: EventProgress, Job: f.job})
		}
		if f.phase == phaseAcked && f.final {
			if de := s.finishIfDoneLocked(f.a); de != nil {
				s.hub.publish(*de)
			}
		}
		s.releaseLocked(f.a)
	}
	s.refreshGaugesLocked()
	s.flushCond.Broadcast()
	s.mu.Unlock()
	s.cond.Broadcast()
}

// runFlusher flushes the executor loops' commits in Start mode, batch
// after batch, until the loops have returned and nothing is pending, or
// the context dies (a crash or a shutdown past its deadline: what is
// unflushed is in each job's durable remaining set, and is re-searched).
func (s *Service) runFlusher() {
	defer close(s.flusherDone)
	s.mu.Lock()
	for {
		if s.ctx.Err() != nil || s.loopsEnded && len(s.life.pending) == 0 && !s.life.flushing {
			s.mu.Unlock()
			return
		}
		if s.life.flushing || len(s.life.pending) == 0 {
			s.flushCond.Wait()
			continue
		}
		s.mu.Unlock()
		s.flush()
		s.mu.Lock()
	}
}

// writeStateLocked records FAILED after a failed checkpoint, or DONE after
// a final one. A refused transition (a cancel landed first) changes
// nothing; any other error means the log is dead. Callers hold s.mu.
func (s *Service) writeStateLocked(id string, to State, reason string) (Job, bool) {
	j, err := s.store.SetState(id, to, reason)
	if err != nil && !errors.Is(err, ErrTransition) && !errors.Is(err, ErrNotFound) {
		s.life.dead = err
		s.cond.Broadcast()
	}
	return j, err == nil
}

// finishIfDoneLocked transitions a job to DONE when the lifecycle says
// it may, returning the event to publish. Callers hold s.mu.
func (s *Service) finishIfDoneLocked(a *activeJob) *Event {
	reason, ok := s.life.doneReady(a)
	if !ok {
		return nil
	}
	j, ok := s.writeStateLocked(a.id, StateDone, reason)
	if !ok {
		return nil
	}
	s.life.stop(a.id)
	s.tel.completed.Inc()
	s.releaseLocked(a)
	return &Event{Type: EventState, Job: j}
}

// Steal splits a straggler's in-flight lease at an interior boundary:
// the victim's lease shrinks to its first keep identifiers and a new
// lease over the stolen tail is issued to the thief executor. The two
// parts tile the original interval exactly, each with its own lease
// accounting, so exactly-once coverage is preserved by construction.
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
	if s.loops != nil {
		return Lease{}, false
	}
	tail := s.life.stealAt(victim, keep, thief)
	if tail == nil {
		return Lease{}, false
	}
	return s.handOutLocked(tail, true), true
}

// stealLocked attempts one steal for idle executor thief: the shrink
// handshake, which blocks on the victim's connection, runs between the
// split and settleSteal with the victim's timer stopped. Callers hold
// s.mu; the Unlock/Lock pair inside drops it across the RPC.
//
//keyvet:allow lockorder
func (s *Service) stealLocked(thief int) (Lease, bool) {
	victim, tail, keep := s.life.steal(thief)
	if victim == nil {
		return Lease{}, false
	}
	stopTimer(victim)
	se := s.execs[victim.State.exec].(StealExecutor)
	jobID, victimID, tailID := victim.State.job.id, victim.ID, tail.ID

	s.mu.Unlock()
	cut, ok := se.ShrinkLease(s.ctx, victimID, keep)
	s.mu.Lock()

	tail, victim, r := s.life.settleSteal(jobID, victimID, tailID, keep, cut, ok)
	s.requeuedLocked(r, s.tel.requeues)
	if victim != nil {
		s.armLocked(victim)
	}
	if tail == nil {
		return Lease{}, false
	}
	return s.handOutLocked(tail, true), true
}

// runExecutor is one of executor i's loops (loopsPerExecutor of them).
// A loop leases while the other one searches, waits for the token, and
// hands the token on before it settles its result, so the other loop's
// queued lease searches while this one's checkpoint is written.
func (s *Service) runExecutor(i int, ex Executor) {
	defer s.wg.Done()
	se, liveCapable := ex.(StealExecutor)
	live := liveCapable && s.opts.Steal.Enabled
	el := &s.loops[i]
	for {
		el.queue <- struct{}{}
		l, ok := s.next(i)
		if !ok {
			<-el.queue
			return
		}
		el.token <- struct{}{}
		<-el.queue
		s.mu.Lock()
		ok, r := s.life.begin(i, l.JobID, l.ID)
		s.requeuedLocked(r, nil)
		s.mu.Unlock()
		if !ok {
			<-el.token
			continue
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
			s.Fail(l)
			el.failures++
			if s.ctx.Err() != nil || el.failures >= s.opts.maxFailures() || errors.Is(err, ErrExecutorGone) {
				// Retire before the token passes: the sibling's queued
				// lease then goes back to its pool unsearched.
				s.mu.Lock()
				s.life.retired[i] = true
				s.mu.Unlock()
				s.cond.Broadcast()
				<-el.token
				return
			}
			<-el.token
			continue
		}
		el.failures = 0
		<-el.token
		// Yield to the loop that just took the token, so the worker's next
		// request goes out before this loop's bookkeeping and before the
		// flush that commit wakes: the last goroutine readied runs first,
		// and a flush holds its processor across the fsync.
		runtime.Gosched()
		s.commit(l, rep, false)
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
	// The store write above is not under s.mu, so an executor in next may
	// have read "nothing pending" and not be waiting yet. Broadcasting
	// under s.mu orders the wakeup after its Wait (or before its read).
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	return j, nil
}

// Get returns a job snapshot.
func (s *Service) Get(id string) (Job, error) { return s.store.Get(id) }

// List returns jobs in submission order, optionally filtered by tenant.
func (s *Service) List(tenant string) []Job { return s.store.List(tenant) }

// Count returns the number of jobs the service holds, in O(1).
func (s *Service) Count() int { return s.store.Count() }

// Watch subscribes to a job's events ("" = all jobs).
func (s *Service) Watch(jobID string) (<-chan Event, func()) {
	return s.hub.subscribe(jobID, 64)
}

// Pause stops new leases for the job; in-flight leases run to their
// chunk boundary and still commit. Valid from PENDING or RUNNING.
func (s *Service) Pause(id string) (Job, error) { return s.setState(id, StatePaused, "") }

// Resume re-queues a PAUSED job through admission control.
func (s *Service) Resume(id string) (Job, error) { return s.setState(id, StatePending, "") }

// Cancel terminates a job. In-flight leases finish their chunk but
// their results are discarded (the job is terminal; no further
// checkpoint lands).
func (s *Service) Cancel(id, reason string) (Job, error) {
	return s.setState(id, StateCancelled, reason)
}

// setState applies a client's transition: a paused or cancelled job
// stops leasing and leaves the active set once its in-flight leases
// drain. Lease waiters are woken either way.
func (s *Service) setState(id string, to State, reason string) (Job, error) {
	s.mu.Lock()
	j, err := s.store.SetState(id, to, reason)
	if err == nil {
		if to != StatePending {
			s.releaseLocked(s.life.stop(id))
		}
		if to == StateCancelled {
			s.tel.cancelled.Inc()
		}
		s.hub.publish(Event{Type: EventState, Job: j})
		s.refreshGaugesLocked()
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	return j, err
}

// Shutdown drains gracefully: admission and leasing stop, in-flight
// leases run to their chunk boundary and checkpoint as usual (a lease
// still queued behind a search goes back to its pool unsearched), then
// the WAL is flushed and closed. If ctx expires first, in-flight leases
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
	s.life.halted = true
	s.mu.Unlock()
	s.cond.Broadcast()

	select {
	case <-s.loopsDone:
	case <-ctx.Done():
		s.cancel()
		<-s.loopsDone
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
	s.life.halted = true
	s.mu.Unlock()
	s.cancel()
	s.cond.Broadcast()
	s.wg.Wait()
	<-s.flusherDone
	s.hub.close()
}
