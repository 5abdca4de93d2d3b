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

// leaseState is what the service keeps per live lease beside the
// interval, which the job's lease table owns (a Steal shrinks it there).
// The timer, when lease timeouts are enabled, requeues the lease on
// expiry. Guarded by the Service mutex.
type leaseState struct {
	timer sim.Timer

	// exec is the executor index the lease was issued to (victim
	// selection never steals an executor's own lease).
	exec int
	// progress is the latest live tested-up-to mark, keys from the
	// interval start (monotonic, clamped to the lease size). Zero until
	// the first mark arrives, so a lease whose search has not
	// demonstrably started is never a victim.
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
	// started marks a lease an executor loop has begun to search. Until
	// then it is queued behind the executor's running search, and an
	// idle executor may reclaim it (reclaimLocked).
	started bool
}

// liveLease is one entry of a job's lease table.
type liveLease = dispatch.Entry[leaseState]

// stopTimer cancels a lease's expiry timer, if it has one.
func stopTimer(le *liveLease) {
	if le.State.timer != nil {
		le.State.timer.Stop()
	}
}

// Service multiplexes jobs over a fleet of executors: admission
// control and fair-share scheduling on the lease path, group-committed
// WAL checkpoints on the commit path, events out the side.
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
	loopsDone chan struct{} // closed when every executor loop has returned
	closeOnce sync.Once

	// loops is the per-executor state of the executor loops (Start mode).
	loops []execLoop
	// storeErr is the error of a FAILED record the store could not write
	// after a WAL failure: the log is dead, and no lease is issued again.
	storeErr error

	// The commit pipeline (see Commit). pending holds the leases settled
	// since the last flush began, flushing marks a flush writing the store
	// with s.mu released, and flushCond wakes whoever waits on either. In
	// Start mode the flusher goroutine writes every batch; loopsEnded
	// tells it the executor loops have returned, and it closes
	// flusherDone when it returns.
	pending     []*settled
	flushing    bool
	flushCond   *sync.Cond
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
// by token) counts the executor's consecutive failed searches; retired
// (guarded by s.mu) ends its loops.
type execLoop struct {
	queue    chan struct{}
	token    chan struct{}
	failures int
	retired  bool
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
	s.manual = manual
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
	s.shares = dispatch.Shares(tunings, s.opts.LeaseScale, s.opts.MinLease, s.opts.MaxLease)
	if !slices.ContainsFunc(s.shares, func(n uint64) bool { return n > 0 }) {
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
		s.loops = make([]execLoop, len(s.execs))
		for i, ex := range s.execs {
			if s.shares[i] == 0 {
				continue
			}
			s.loops[i].queue = make(chan struct{}, 1)
			s.loops[i].token = make(chan struct{}, 1)
			for range loopsPerExecutor {
				s.wg.Add(1)
				go s.runExecutor(i, ex)
			}
		}
		// Wake lease waiters and the flusher when the context dies.
		context.AfterFunc(s.ctx, func() {
			s.mu.Lock()
			s.flushCond.Broadcast()
			s.mu.Unlock()
			s.cond.Broadcast()
		})
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
	return append([]uint64(nil), s.shares...)
}

// activateLocked builds runtime state for a RUNNING job from its
// durable checkpoint, with the handle its leases carry: admission, resume
// and recovery all pass through here, and dropIfDrainedLocked releases
// the handle. Callers hold s.mu.
func (s *Service) activateLocked(j Job) error {
	if a, ok := s.active[j.ID]; ok {
		// A pause left leases in flight and the job never drained from
		// the active set. The in-memory lease table — not the stored
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
	spec := j.Spec
	spec.h = &Handle{spec: j.Spec, holds: make(map[any]func())}
	a := &activeJob{
		id:       j.ID,
		tenant:   j.Tenant,
		priority: j.Priority,
		spec:     spec,
		subAt:    j.SubmittedAt,
		leases:   dispatch.NewTable[leaseState](cp.Remaining...),
		tested:   cp.Tested,
		found:    cp.Found,
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
// Admission order is priority, then earliest SubmittedAt, then table
// order. It reads only the store's pending index, so its cost does not
// grow with the terminal jobs the table holds.
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
	s.tel.running.Set(float64(len(s.active)))
}

// next blocks until a lease is available for executor i, the service
// drains, the executor is retired, or the context dies. Only when the
// executor is idle — no lease of its searching — does it reclaim a lease
// queued on another executor, or steal.
func (s *Service) next(i int) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el := &s.loops[i]
	waitStart := s.clock.Now()
	for {
		if s.draining || s.ctx.Err() != nil || el.retired || s.storeErr != nil {
			return Lease{}, false
		}
		if l, ok := s.tryLeaseLocked(i, waitStart); ok {
			return l, true
		}
		if busy := s.searchingLocked(); !busy[i] {
			if s.reclaimLocked(i, busy) {
				continue
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
		}
		if hook := testHookIdle.Load(); hook != nil {
			(*hook)()
		}
		s.cond.Wait()
	}
}

// searchingLocked reports which executors have a lease searching (only
// the executor loops start leases, and they lease to valid indices). It
// scans the live leases, so only the idle path asks. Callers hold s.mu.
func (s *Service) searchingLocked() []bool {
	busy := make([]bool, len(s.execs))
	for _, a := range s.active {
		for _, le := range a.leases.Live() {
			if le.State.started {
				busy[le.State.exec] = true
			}
		}
	}
	return busy
}

// reclaimLocked returns to its pool a lease that another executor holds
// queued behind its running search, so that idle executor i leases it
// now instead of waiting for that search to end: without it, the last
// leases of a job wait behind busy executors while idle ones look on.
// A lease whose executor is not searching is about to start, and is
// left alone. It reports whether it found one. Callers hold s.mu.
func (s *Service) reclaimLocked(i int, busy []bool) bool {
	for _, a := range s.active {
		if a.stopLeasing {
			continue
		}
		for _, le := range a.leases.Live() {
			if st := le.State; !st.started && !st.stealing && st.exec != i && busy[st.exec] {
				return s.requeueLocked(a, le.ID, nil)
			}
		}
	}
	return false
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
	if !s.started || s.draining || s.ctx.Err() != nil {
		return Lease{}, false
	}
	return s.tryLeaseLocked(exec, s.clock.Now())
}

// tryLeaseLocked picks the next lease for executor i, or reports none
// runnable. Callers hold s.mu.
func (s *Service) tryLeaseLocked(i int, waitStart time.Time) (Lease, bool) {
	if i < 0 || i >= len(s.shares) || s.shares[i] == 0 || s.storeErr != nil {
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
		le, ok := a.leases.Issue(s.leaseSeq+1, s.shares[i])
		if !ok {
			continue
		}
		s.leaseSeq++
		le.State.exec = i
		s.rearmLeaseLocked(a.id, le)
		l := a.lease(le)
		s.sched.charge(a.tenant, le.N)
		s.tel.leases.Inc()
		s.tel.leaseLen.Observe(float64(le.N))
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

// rearmLeaseLocked (re)starts the expiry timer for a live lease when
// lease timeouts are enabled. Callers hold s.mu.
func (s *Service) rearmLeaseLocked(jobID string, le *liveLease) {
	if d := s.opts.LeaseTimeout; d > 0 {
		leaseID := le.ID
		le.State.timer = s.clock.AfterFunc(d, func() { s.expireLease(jobID, leaseID) })
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
		if le, ok := a.leases.Get(leaseID); ok {
			if done > le.N {
				done = le.N
			}
			if done > le.State.progress {
				// The first mark makes the lease a steal candidate
				// (pickVictimLocked skips progress-less leases); wake any
				// executor that went idle before the search warmed up.
				wake = le.State.progress == 0 && a.spec.Steal && s.opts.Steal.Enabled
				le.State.progress = done
			}
		}
	}
	s.mu.Unlock()
	if wake {
		s.cond.Broadcast()
	}
}

// requeueLocked returns live lease id of job a to the pool untested: the
// tenant's deficit is refunded, counter counts it and lease waiters are
// woken. A nil counter returns a lease that never reached its executor,
// which is no requeue incident. It reports false — and does nothing —
// when the lease has already left the table, which is how a late Fail or
// expiry stays harmless. Callers hold s.mu and run Options.OnRequeue once
// they have released it.
func (s *Service) requeueLocked(a *activeJob, id uint64, counter *telemetry.Counter) bool {
	le, ok := a.leases.Requeue(id)
	if !ok {
		return false
	}
	stopTimer(le)
	s.sched.credit(a.tenant, le.N)
	if counter != nil {
		counter.Inc()
		s.tel.requeued.Add(le.N)
	}
	s.dropIfDrainedLocked(a)
	s.cond.Broadcast()
	return true
}

// expireLease requeues a lease that outlived Options.LeaseTimeout; any
// later Commit/Fail for it is rejected. Runs on the service clock (a
// goroutine under the wall clock, an engine event under a virtual one).
func (s *Service) expireLease(jobID string, leaseID uint64) {
	s.mu.Lock()
	requeued := false
	if a := s.active[jobID]; a != nil {
		// A lease pinned by a steal handshake between split and settle is
		// left alone: settle re-arms the timer, so deferring costs at most
		// one extra timeout and can never dispose of keys the handshake is
		// about to move.
		if le, ok := a.leases.Get(leaseID); ok && !le.State.stealing {
			requeued = s.requeueLocked(a, leaseID, s.tel.expired)
		}
	}
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
	a := s.active[l.JobID]
	requeued := a != nil && s.requeueLocked(a, l.ID, s.tel.requeues)
	if a != nil && !requeued {
		s.tel.lateCommits.Inc()
	}
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
// could not be written) and the work must be discarded, which is how
// exactly-once coverage survives late arrivals.
//
// Commit waits for the flush that covers its lease, and runs that flush
// itself when no other one is running; a lone caller — manual drive — is
// a batch of one. The executor loops do not wait: they settle and go on
// to their next lease, and the flusher writes their batches.
func (s *Service) Commit(l Lease, rep *dispatch.Report) bool {
	s.mu.Lock()
	c := s.settleLocked(l, rep)
	for c != nil && !c.done {
		if s.flushing {
			s.flushCond.Wait()
			continue
		}
		s.mu.Unlock()
		s.flush()
		s.mu.Lock()
	}
	s.mu.Unlock()
	return c != nil && c.accepted
}

// flush writes and acknowledges every lease settled since the last flush
// began, unless another flush is running or nothing is pending. Whoever
// flushes takes the whole batch: one checkpoint per job, the job's full
// remaining set, so the batch is one ordinary record and one fsync, and
// s.mu is released across the store writes, so leases are issued and
// the next batch settles while the fsync runs.
func (s *Service) flush() {
	s.mu.Lock()
	if s.flushing || len(s.pending) == 0 {
		s.mu.Unlock()
		return
	}
	batch := s.pending
	s.pending, s.flushing = nil, true
	fl := s.prepareFlushLocked(batch)
	s.mu.Unlock()
	s.writeFlush(fl)
	s.mu.Lock()
	s.finishFlushLocked(batch, fl)
	s.flushing = false
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
		if s.ctx.Err() != nil || s.loopsEnded && len(s.pending) == 0 && !s.flushing {
			s.mu.Unlock()
			return
		}
		if s.flushing || len(s.pending) == 0 {
			s.flushCond.Wait()
			continue
		}
		s.mu.Unlock()
		s.flush()
		s.mu.Lock()
	}
}

// settle lands a lease an executor loop searched, without waiting for its
// flush: the loop goes straight on to lease again while the flusher
// writes the checkpoint.
func (s *Service) settle(l Lease, rep *dispatch.Report) {
	s.mu.Lock()
	if s.settleLocked(l, rep) != nil {
		s.flushCond.Broadcast()
	}
	s.mu.Unlock()
}

// settled is one lease Commit has settled in memory, waiting for the
// flush that makes it durable; that flush fills in done and accepted.
type settled struct {
	a        *activeJob
	tenant   string
	iv       keyspace.Interval
	tested   uint64
	found    bool
	done     bool
	accepted bool
}

// settleLocked takes lease l out of its job's table and counts its keys
// in memory, queueing it for the next flush. It returns nil when the
// lease is no longer live — the timeout requeued it, and accepting this
// commit would double-count the span when the re-issued lease lands.
// Callers hold s.mu.
func (s *Service) settleLocked(l Lease, rep *dispatch.Report) *settled {
	a := s.active[l.JobID]
	if a == nil {
		return nil
	}
	le, live := a.leases.Settle(l.ID)
	if !live {
		s.tel.lateCommits.Inc()
		return nil
	}
	stopTimer(le)
	tested := rep.Tested
	if tested > le.N {
		// The lease was shrunk by a steal after its worker had already
		// passed the split point: the report covers more keys than the
		// lease now holds. Only the lease's own span counts — the surplus
		// sits inside the stolen tail's lease and is re-searched there,
		// so coverage stays exact (duplicated work, never double-counted
		// keys).
		tested = le.N
	}
	a.tested += tested
	a.found = append(a.found, rep.Found...)
	a.sinceCP++
	a.unflushed++
	c := &settled{a: a, tenant: l.Tenant, iv: le.Interval, tested: tested, found: len(rep.Found) > 0}
	s.pending = append(s.pending, c)
	return c
}

// jobFlush is one job's share of a flush: the checkpoint to write (nil
// when CheckpointEvery defers it) and, once written, the outcome.
type jobFlush struct {
	a     *activeJob
	cp    *dispatch.Checkpoint
	found bool // a lease of the batch found a solution
	final bool // cp's remaining set is empty or meets the quota: DONE follows it

	err      error
	job      Job  // the snapshot after the write
	acked    bool // durable: the batch's leases are acknowledged
	accepted bool // what Commit reports (a terminal job's discard counts)
}

// prepareFlushLocked builds each job's checkpoint for a batch, from the
// tables as they stand: every lease settled so far is in this batch or
// an earlier one, so the checkpoint covers exactly what the flush
// acknowledges. Completion, solution-bearing batches and quota stops
// always checkpoint. Callers hold s.mu.
func (s *Service) prepareFlushLocked(batch []*settled) []*jobFlush {
	var fl []*jobFlush
	for _, c := range batch {
		i := slices.IndexFunc(fl, func(f *jobFlush) bool { return f.a == c.a })
		if i < 0 {
			i = len(fl)
			fl = append(fl, &jobFlush{a: c.a})
		}
		fl[i].found = fl[i].found || c.found
	}
	for _, f := range fl {
		a := f.a
		f.final = a.leases.Exhausted() || a.spec.MaxSolutions > 0 && len(a.found) >= a.spec.MaxSolutions
		// A deferred checkpoint leaves the commits applied in memory and
		// acknowledged; a crash before a later checkpoint re-searches
		// them — duplicated work, not duplicated coverage.
		if f.final || f.found || a.sinceCP >= s.opts.checkpointEvery() {
			f.cp = dispatch.NewCheckpoint(a.leases.Remaining(), a.tested, a.found)
			a.sinceCP = 0 // a failed write fails the job: no later checkpoint counts on it
		}
	}
	return fl
}

// writeFlush writes each job's checkpoint and reads its snapshot once,
// with s.mu released: a lease is issued, and the next batch settles,
// while the fsync runs.
func (s *Service) writeFlush(fl []*jobFlush) {
	for _, f := range fl {
		if f.cp != nil {
			f.err = s.store.RecordCheckpoint(f.a.id, f.cp)
		}
		if f.err == nil {
			f.job, f.err = s.store.Get(f.a.id)
		}
	}
}

// finishFlushLocked acknowledges a written batch: for each job whose
// checkpoint is durable, OnCommit and tenant charging per lease in commit
// order, then one progress (or found) event and completion. A job that
// turned terminal before its write (a cancel, say) has its batch
// discarded, as a commit to a terminal job always was. A job whose write
// failed is failed and stops leasing; if even its FAILED record cannot
// be written, the log is dead and the service issues no lease again.
// Callers hold s.mu.
func (s *Service) finishFlushLocked(batch []*settled, fl []*jobFlush) {
	byJob := make(map[*activeJob]*jobFlush, len(fl))
	for _, f := range fl {
		byJob[f.a] = f
		switch {
		case errors.Is(f.err, ErrTransition) || errors.Is(f.err, ErrNotFound) || f.err == nil && f.job.State.Terminal():
			f.accepted = true
		case f.err != nil:
			f.a.stopLeasing = true
			if fj, ferr := s.store.SetState(f.a.id, StateFailed, f.err.Error()); ferr != nil {
				s.storeErr = ferr
			} else {
				s.tel.failed.Inc()
				s.hub.publish(Event{Type: EventState, Job: fj})
			}
		default:
			f.acked, f.accepted = true, true
		}
	}
	for _, c := range batch {
		f := byJob[c.a]
		c.done, c.accepted = true, f.accepted
		c.a.unflushed--
		if f.acked {
			s.tel.committed(c.tenant, c.tested)
			if s.opts.OnCommit != nil {
				s.opts.OnCommit(c.a.id, c.tenant, c.iv, c.tested)
			}
		}
	}
	for _, f := range fl {
		if f.acked {
			typ := EventProgress
			if f.cp != nil && f.found {
				typ = EventFound
			}
			s.hub.publish(Event{Type: typ, Job: f.job})
			if f.final {
				if de := s.finishIfDoneLocked(f.a); de != nil {
					s.hub.publish(*de)
				}
			}
		}
		s.dropIfDrainedLocked(f.a)
	}
	s.refreshGaugesLocked()
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
	if le, ok := a.leases.Get(victim.ID); !ok || le.State.stealing {
		return Lease{}, false
	}
	tail, ok := s.splitLeaseLocked(a, victim.ID, keep, thief)
	if !ok {
		return Lease{}, false
	}
	s.rearmLeaseLocked(a.id, tail)
	s.stolenLocked(tail)
	return a.lease(tail), true
}

// stolenLocked counts a settled steal: tail is the thief's new lease.
func (s *Service) stolenLocked(tail *liveLease) {
	s.tel.steals.Inc()
	s.tel.stolenKeys.Add(tail.N)
	s.tel.leases.Inc()
	s.tel.leaseLen.Observe(float64(tail.N))
}

// splitLeaseLocked carves the tail beyond keep off live lease victimID
// (0 < keep < its size, or the table refuses) into a fresh lease for
// executor thief. The tenant was charged for the full original lease at
// issue time; the split moves keys between leases of the same tenant, so
// the deficit stands. Timer management is the caller's: the manual Steal
// arms the tail immediately, the handshake path only once the boundary
// settles.
func (s *Service) splitLeaseLocked(a *activeJob, victimID, keep uint64, thief int) (*liveLease, bool) {
	if s.storeErr != nil {
		return nil, false
	}
	tail, ok := a.leases.Split(victimID, keep, s.leaseSeq+1)
	if !ok {
		return nil, false
	}
	s.leaseSeq++
	tail.State.exec = thief
	if thief >= 0 && thief < len(s.lastJob) {
		s.lastJob[thief] = a.id
	}
	return tail, true
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
func (s *Service) pickVictimLocked(thief int) (a *activeJob, victim *liveLease, keep uint64, se StealExecutor) {
	minSteal := s.opts.Steal.minSteal()
	var best float64
	for _, cand := range s.active {
		if !cand.spec.Steal || cand.stopLeasing {
			continue
		}
		for _, le := range cand.leases.Live() {
			c := le.State
			if c.stealing || c.noSteal || c.exec == thief || c.exec < 0 || c.exec >= len(s.execs) {
				continue
			}
			if c.progress == 0 {
				continue
			}
			rem := le.N - c.progress
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
			if score := float64(rem) / share; victim == nil || score > best {
				a, victim, se, best = cand, le, ex, score
			}
		}
	}
	if victim == nil {
		return nil, nil, 0, nil
	}
	rem := victim.N - victim.State.progress
	return a, victim, victim.State.progress + (rem+1)/2, se
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
// Callers hold s.mu by the *Locked contract; the Unlock/Lock pair inside
// drops it for the blocking handshake, so the mutex is never actually
// held across the RPC or reacquired while held.
//
//keyvet:allow lockorder
func (s *Service) stealLocked(thief int) (Lease, bool) {
	if thief < 0 || thief >= len(s.shares) || s.shares[thief] == 0 {
		return Lease{}, false
	}
	a, victim, keep, se := s.pickVictimLocked(thief)
	if victim == nil {
		return Lease{}, false
	}
	tail, ok := s.splitLeaseLocked(a, victim.ID, keep, thief)
	if !ok {
		return Lease{}, false
	}
	victim.State.stealing = true
	stopTimer(victim)
	tail.State.stealing = true // pin the tail: no timer, no re-steal, until settled
	jobID, victimID, tailID, svcCtx := a.id, victim.ID, tail.ID, s.ctx

	s.mu.Unlock()
	cut, ok := se.ShrinkLease(svcCtx, victimID, keep)
	s.mu.Lock()

	return s.settleStealLocked(jobID, victimID, tailID, keep, cut, ok)
}

// settleStealLocked finishes a shrink handshake under s.mu. The thief's
// tail lease is pinned (stealing, no timer), so it is still in flight;
// the victim's half may have been disposed of while the lock was
// released — committed exactly at its shrunken size (commit clamps
// Tested to the lease), failed, or expired — and each combination
// settles to exact tiling.
func (s *Service) settleStealLocked(jobID string, victimID, tailID, keep, cut uint64, ok bool) (Lease, bool) {
	a := s.active[jobID]
	if a == nil {
		return Lease{}, false
	}
	tail, live := a.leases.Get(tailID)
	if !live {
		return Lease{}, false
	}
	tail.State.stealing = false
	victim, victimLive := a.leases.Get(victimID)
	if victimLive {
		victim.State.stealing = false
	}

	if ok && cut > keep && cut-keep >= tail.N {
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
		if a.leases.Merge(victimID, tailID) {
			victim.State.noSteal = true
			s.rearmLeaseLocked(jobID, victim)
		} else {
			s.requeueLocked(a, tailID, s.tel.requeues)
		}
		return Lease{}, false
	}

	if cut > keep {
		// The victim had already tested past the requested split point;
		// the effective boundary moves [keep, cut) out of the tail. If
		// the victim's lease is still live it grows to match, so its
		// commit stays exact; if not (the move is refused), its
		// disposition already settled the head and the thief re-searches
		// [keep, cut) — duplicated work, never a gap.
		a.leases.MoveBoundary(victimID, tailID, cut)
	}
	if victimLive {
		s.rearmLeaseLocked(jobID, victim)
	}
	s.rearmLeaseLocked(jobID, tail)
	s.stolenLocked(tail)
	return a.lease(tail), true
}

// finishIfDoneLocked transitions a job to DONE when its keyspace is
// exhausted or its solution quota is met, returning the event to
// publish. A job with commits not yet flushed waits for the flush: DONE
// follows only a durable checkpoint.
func (s *Service) finishIfDoneLocked(a *activeJob) *Event {
	if a.unflushed > 0 {
		return nil
	}
	exhausted := a.leases.Exhausted()
	quota := a.spec.MaxSolutions > 0 && len(a.found) >= a.spec.MaxSolutions
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
// set once its in-flight leases are gone and its settled ones flushed,
// freeing its admission slot and releasing its handle. It is the one
// place a job leaves the set. (A job dropped before its flush could be
// resumed from a checkpoint that still lists the flushing leases, and
// search them twice.)
func (s *Service) dropIfDrainedLocked(a *activeJob) {
	if a.stopLeasing && a.leases.Len() == 0 && a.unflushed == 0 {
		delete(s.active, a.id)
		a.spec.h.release()
	}
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
		if !s.begin(i, l) {
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
				s.retire(i)
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
		// flush that settle wakes: the last goroutine readied runs first,
		// and a flush holds its processor across the fsync.
		runtime.Gosched()
		s.settle(l, rep)
	}
}

// begin starts lease l on executor i, whose token the caller holds. It
// reports false when the lease must not run: it left the table while it
// was queued (reclaimed by an idle executor, or timed out), or the
// executor was retired, the job stopped leasing or the service is
// stopping, in which case the lease goes back to its pool unsearched.
func (s *Service) begin(i int, l Lease) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.active[l.JobID]
	if a == nil {
		return false
	}
	le, ok := a.leases.Get(l.ID)
	if !ok {
		return false
	}
	if s.loops[i].retired || a.stopLeasing || s.draining || s.ctx.Err() != nil || s.storeErr != nil {
		s.requeueLocked(a, l.ID, nil)
		return false
	}
	le.State.started = true
	return true
}

// retire ends executor i's loops: the one that failed returns, and the
// other returns its queued lease unsearched or wakes in next and returns.
func (s *Service) retire(i int) {
	s.mu.Lock()
	s.loops[i].retired = true
	s.mu.Unlock()
	s.cond.Broadcast()
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
		if a, ok := s.active[id]; ok && to != StatePending {
			a.stopLeasing = true
			s.dropIfDrainedLocked(a)
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
	s.draining = true
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
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.cond.Broadcast()
	s.wg.Wait()
	<-s.flusherDone
	s.hub.close()
}
