package fleetsim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/sim"
)

// Submission is one job the simulated tenants submit to the service.
type Submission struct {
	Tenant   string
	Priority int
	At       float64 // virtual submission time
	Spec     jobs.Spec
	// Plant places a findable key at this identifier index (-1 = none):
	// the worker whose lease covers the index reports it found, which
	// is how time-to-find is measured without hashing anything.
	Plant int64
}

// Config describes one fleet run.
type Config struct {
	Workers int
	Seed    int64
	// TputMin/TputMax bound the per-worker throughput, drawn uniformly
	// from the seeded stream (heterogeneous fleet, keys per virtual
	// second).
	TputMin, TputMax float64
	// LeaseSeconds is the target virtual duration of one lease: each
	// worker's tuned MinBatch is its throughput times this, so the
	// balance rule N_j = N_max·X_j/X_max sizes every lease to roughly
	// LeaseSeconds of work regardless of worker speed (default 30).
	LeaseSeconds float64
	// LeaseTimeout is the service-side lease recovery deadline, in
	// virtual time. Required (> 0) when the churn schedule contains
	// crashes — a crashed worker's lease is recovered by nothing else.
	LeaseTimeout time.Duration
	// CheckpointEvery throttles durable checkpoints (jobs.Options).
	CheckpointEvery int
	// Steal enables adaptive work stealing: an idle worker that finds
	// no leasable work splits the straggler with the latest projected
	// finish at its progress boundary and takes the untested tail.
	// Jobs must also opt in via Spec.Steal.
	Steal bool
	// MinSteal is the smallest untested tail worth splitting
	// (default 64 keys).
	MinSteal uint64
	// ProgressEvery is the progress-mark cadence in virtual seconds:
	// the steal policy sees a victim's progress only as of its latest
	// mark, the way the live fleet's MsgProgress frames quantize what
	// the service knows (0 = continuous knowledge, the legacy model).
	// The shrink handshake is modeled too: the effective split never
	// cedes keys the victim has actually tested, however stale the
	// mark the thief planned from.
	ProgressEvery float64
	// Churn generates the perturbation schedule from Seed+1 when
	// Schedule is nil.
	Churn ChurnOptions
	// Schedule overrides generated churn with an explicit event list.
	Schedule    []ChurnEvent
	Submissions []Submission
	// Dir is the store directory (WAL + snapshots live here).
	Dir string
	// EventBudget aborts a runaway simulation after this many engine
	// events (0 = unlimited).
	EventBudget int64
	// MaxRunning caps concurrently admitted jobs (0 = service default).
	MaxRunning int
	// Weights are the per-tenant fair-share weights.
	Weights map[string]float64
	// OnCommit, when set, observes every committed lease (test audits;
	// same contract as jobs.Options.OnCommit).
	OnCommit func(jobID, tenant string, iv keyspace.Interval, tested uint64)
}

func (c Config) leaseSeconds() float64 {
	if c.LeaseSeconds <= 0 {
		return 30
	}
	return c.LeaseSeconds
}

func (c Config) minSteal() uint64 {
	if c.MinSteal == 0 {
		return 64
	}
	return c.MinSteal
}

// Result is the outcome of one fleet run. The digests are FNV-1a
// hashes over the full event trace and the steal log: two runs of the
// same Config are byte-equivalent iff the digests (and counts) match.
type Result struct {
	Workers  int     `json:"workers"`
	Seed     int64   `json:"seed"`
	Makespan float64 `json:"makespan_s"` // virtual time of the last committed lease

	// TimeToFind is the virtual time the first planted key was
	// committed (-1 = never found / nothing planted).
	TimeToFind float64 `json:"time_to_find_s"`

	Tested      uint64 `json:"tested"`
	Commits     uint64 `json:"commits"`
	Leases      uint64 `json:"leases"`
	Steals      uint64 `json:"steals"`
	StolenKeys  uint64 `json:"stolen_keys"`
	Requeues    uint64 `json:"requeues"`
	LateCommits uint64 `json:"late_commits"`
	Crashes     uint64 `json:"crashes"`

	// FairnessJain is Jain's index over per-tenant committed keys
	// normalized by tenant weight: 1.0 = perfectly weighted-fair.
	FairnessJain float64           `json:"fairness_jain"`
	TenantKeys   map[string]uint64 `json:"tenant_keys"`

	TraceEvents uint64  `json:"trace_events"`
	TraceDigest string  `json:"trace_digest"`
	StealDigest string  `json:"steal_digest"`
	JobsDone    int     `json:"jobs_done"`
	EngineEnd   float64 `json:"engine_end_s"` // drained virtual clock (≥ makespan)
}

// simExec satisfies jobs.Executor with a synthetic tuning; Search is
// never called because the fleet drives the service manually.
type simExec struct {
	name string
	tn   core.Tuning
}

func (e *simExec) Name() string                              { return e.name }
func (e *simExec) Tune(context.Context) (core.Tuning, error) { return e.tn, nil }
func (e *simExec) Search(context.Context, jobs.Spec, keyspace.Interval) (*dispatch.Report, error) {
	return nil, errors.New("fleetsim: simulated executors cannot search; the fleet drives the service manually")
}

// Trace event kinds (digest input).
const (
	evLease uint8 = iota + 1
	evCommit
	evLate
	evSteal
	evRequeue
	evJoin
	evLeave
	evCrash
	evSlow
	evJobDone
)

// worker is the fleet-side runtime of one simulated machine. Progress
// on the current lease is tracked analytically: done keys at the mark
// time plus tput times elapsed since — no per-key events exist, which
// is what makes 10⁵ workers affordable.
type worker struct {
	tput    float64
	up      bool
	leaving bool
	idle    bool
	has     bool
	epoch   uint64 // invalidates scheduled completions and straggler entries
	lease   jobs.Lease
	done    float64 // keys completed as of mark
	mark    float64 // virtual time of the last progress accounting
	finish  float64 // projected completion time
}

// stragEntry is a lazily-invalidated straggler-heap record: stale
// epochs are discarded on pop instead of being removed eagerly.
type stragEntry struct {
	finish float64
	idx    int32
	epoch  uint64
}

// stragHeap is a max-heap on projected finish time: the top is the
// worker that will hold its lease the longest — the best steal victim.
type stragHeap []stragEntry

func (h stragHeap) Len() int { return len(h) }
func (h stragHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish > h[j].finish
	}
	return h[i].idx < h[j].idx // deterministic tie-break
}
func (h stragHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stragHeap) Push(x any)   { *h = append(*h, x.(stragEntry)) }
func (h *stragHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// fleet is one in-progress run: the worker fleet, the engine and
// clock it runs on, and the service it drives. Run drives one fleet to
// completion; RehearseFailover drives the same fleet through a master
// crash and a promotion.
type fleet struct {
	cfg      Config
	eng      *sim.Engine
	clock    *sim.Virtual
	svc      *jobs.Service
	execs    []jobs.Executor
	schedule []ChurnEvent
	ws       []worker
	idle     []int32
	strag    stragHeap

	// down is the master-down state: between a master crash and its
	// replacement, submissions are lost and no lease is issued.
	down bool

	plants    map[string]uint64 // jobID -> planted identifier index
	doneJobs  map[string]bool
	foundJobs map[string]bool // jobs with a committed find

	res     Result
	traceH  uint64 // FNV-1a over the event trace
	stealH  uint64 // FNV-1a over the steal log
	tenants map[string]uint64
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvStr(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// trace folds one event into the run digest. Everything that matters
// for determinism — time, actor, payload — is hashed, so two runs with
// equal digests took the same decisions at the same virtual instants.
func (f *fleet) trace(kind uint8, a, b, c uint64) {
	f.res.TraceEvents++
	h := f.traceH
	h = fnvMix(h, uint64(kind))
	h = fnvMix(h, math.Float64bits(f.eng.Now()))
	h = fnvMix(h, a)
	h = fnvMix(h, b)
	h = fnvMix(h, c)
	f.traceH = h
}

// Run executes the configured fleet to completion and reports the
// trajectory. Deterministic: the same Config (including Seed and Dir
// contents — use a fresh directory) yields the same Result, digest for
// digest.
func Run(cfg Config) (*Result, error) {
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	store, err := jobs.Open(cfg.Dir, jobs.StoreOptions{NoSync: true, Clock: f.clock})
	if err != nil {
		return nil, err
	}
	if err := f.start(store); err != nil {
		return nil, err
	}
	f.begin()
	if err := f.run(); err != nil {
		f.svc.Shutdown(context.Background())
		return nil, err
	}
	f.res.FairnessJain = jain(f.tenants, cfg.Weights)
	f.res.JobsDone = len(f.doneJobs)
	f.res.TraceDigest = fmt.Sprintf("fnv1a:%016x", f.traceH)
	f.res.StealDigest = fmt.Sprintf("fnv1a:%016x", f.stealH)
	if err := f.svc.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	res := f.res
	return &res, nil
}

// newFleet validates cfg and builds the fleet: the seeded throughput
// draw, one simulated executor per worker, the engine and its clock.
func newFleet(cfg Config) (*fleet, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("fleetsim: Workers must be positive")
	}
	if cfg.TputMin <= 0 || cfg.TputMax < cfg.TputMin {
		return nil, fmt.Errorf("fleetsim: bad throughput range [%v, %v]", cfg.TputMin, cfg.TputMax)
	}
	if len(cfg.Submissions) == 0 {
		return nil, errors.New("fleetsim: no submissions")
	}
	if cfg.Dir == "" {
		return nil, errors.New("fleetsim: Dir required")
	}
	schedule := cfg.Schedule
	if schedule == nil {
		schedule = GenerateChurn(cfg.Seed+1, cfg.Workers, cfg.Churn)
	}
	for _, ev := range schedule {
		if ev.Kind == ChurnCrash && cfg.LeaseTimeout <= 0 {
			return nil, errors.New("fleetsim: crash churn requires LeaseTimeout > 0 (nothing else recovers a crashed worker's lease)")
		}
		if int(ev.Worker) >= cfg.Workers {
			return nil, fmt.Errorf("fleetsim: churn event targets worker %d of %d", ev.Worker, cfg.Workers)
		}
	}

	eng := sim.NewEngine()
	if cfg.EventBudget > 0 {
		eng.SetBudget(cfg.EventBudget)
	}
	f := &fleet{
		cfg:       cfg,
		eng:       eng,
		clock:     sim.NewVirtual(eng, time.Time{}),
		schedule:  schedule,
		ws:        make([]worker, cfg.Workers),
		execs:     make([]jobs.Executor, cfg.Workers),
		plants:    make(map[string]uint64),
		doneJobs:  make(map[string]bool),
		foundJobs: make(map[string]bool),
		tenants:   make(map[string]uint64),
		traceH:    fnvOffset,
		stealH:    fnvOffset,
	}
	f.res = Result{Workers: cfg.Workers, Seed: cfg.Seed, TimeToFind: -1, TenantKeys: f.tenants}

	// Heterogeneous fleet: throughputs from the seeded stream, in index
	// order, so the draw is part of the deterministic trace.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range f.ws {
		tput := cfg.TputMin + rng.Float64()*(cfg.TputMax-cfg.TputMin)
		f.ws[i] = worker{tput: tput, up: true}
		f.execs[i] = &simExec{
			name: fmt.Sprintf("w%06d", i),
			tn:   core.Tuning{MinBatch: uint64(tput*cfg.leaseSeconds()) + 1, Throughput: tput},
		}
	}
	return f, nil
}

// start puts a service over store in front of the fleet and starts it
// in manual-drive mode. On failure the store is closed and the fleet
// keeps its previous service.
func (f *fleet) start(store *jobs.Store) error {
	svc := jobs.NewService(store, f.execs, jobs.Options{
		Sched:           jobs.SchedOptions{MaxRunning: f.cfg.MaxRunning, Weights: f.cfg.Weights},
		Clock:           f.clock,
		LeaseTimeout:    f.cfg.LeaseTimeout,
		CheckpointEvery: f.cfg.CheckpointEvery,
		OnCommit: func(jobID, tenant string, iv keyspace.Interval, tested uint64) {
			f.tenants[tenant] += tested
			if f.cfg.OnCommit != nil {
				f.cfg.OnCommit(jobID, tenant, iv, tested)
			}
		},
		OnRequeue: func(jobID string) {
			f.res.Requeues++
			f.trace(evRequeue, fnvStr(jobID), 0, 0)
			f.chainWake()
		},
	})
	if err := svc.StartManual(context.Background()); err != nil {
		store.Close()
		return err
	}
	f.svc = svc
	return nil
}

// begin schedules the scenario on a started fleet: churn, submissions,
// then the bootstrap after the t=0 submissions (same timestamp, later
// serial).
func (f *fleet) begin() {
	for _, ev := range f.schedule {
		f.eng.Schedule(ev.At, func() { f.churn(ev) })
	}
	for _, sub := range f.cfg.Submissions {
		f.eng.Schedule(sub.At, func() { f.submit(sub) })
	}
	f.eng.Schedule(0, f.startAll)
}

// run drains the engine and fails a run that hit its event budget.
func (f *fleet) run() error {
	f.res.EngineEnd = f.eng.Run()
	if f.eng.BudgetExceeded() {
		return fmt.Errorf("fleetsim: event budget of %d exceeded at t=%v (runaway simulation)", f.cfg.EventBudget, f.eng.Now())
	}
	return nil
}

// masterDown enters the master-down state: every in-flight lease dies
// with the master (its scheduled completion is cancelled), and no
// worker waits idle on a service that is gone.
func (f *fleet) masterDown() {
	f.down = true
	for i := range f.ws {
		w := &f.ws[i]
		w.epoch++
		w.has, w.idle = false, false
	}
	f.idle = f.idle[:0]
}

// startAll offers work to every worker, in index order.
func (f *fleet) startAll() {
	for i := range f.ws {
		f.tryStart(int32(i))
	}
}

// jain computes Jain's fairness index over per-tenant committed keys,
// normalized by weight: (Σx)² / (n·Σx²) with x = keys/weight.
func jain(keys map[string]uint64, weights map[string]float64) float64 {
	if len(keys) == 0 {
		return 1
	}
	var sum, sumSq float64
	for t, k := range keys {
		w := weights[t]
		if w <= 0 {
			w = 1
		}
		x := float64(k) / w
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(keys)) * sumSq)
}

func (f *fleet) submit(sub Submission) {
	if f.down {
		return // the control plane is dead; this submission is lost
	}
	j, err := f.svc.Submit(sub.Tenant, sub.Priority, sub.Spec)
	if err != nil {
		// A rejected submission is part of the scenario, not a crash.
		f.trace(evJobDone, fnvStr("rejected:"+sub.Tenant), 0, 0)
		return
	}
	if sub.Plant >= 0 {
		f.plants[j.ID] = uint64(sub.Plant)
	}
	f.trace(evLease, fnvStr(j.ID), 0, 0)
	f.chainWake()
}

// tryStart gets worker i onto new work: lease first, then steal, then
// park idle.
func (f *fleet) tryStart(i int32) {
	w := &f.ws[i]
	if f.down || !w.up || w.has || w.leaving {
		return
	}
	if l, ok := f.svc.TryLease(int(i)); ok {
		f.assign(i, l)
		f.chainWake()
		return
	}
	if f.cfg.Steal && f.trySteal(i) {
		f.chainWake()
		return
	}
	if !w.idle {
		w.idle = true
		f.idle = append(f.idle, i)
	}
}

// chainWake schedules one idle worker to try for work: each success
// chains one more attempt, so a burst of new work ramps the idle pool
// up one event at a time instead of storming O(idle) wakeups per
// requeue.
func (f *fleet) chainWake() {
	if len(f.idle) > 0 {
		f.eng.Schedule(0, f.wakeOne)
	}
}

func (f *fleet) wakeOne() {
	for len(f.idle) > 0 {
		i := f.idle[len(f.idle)-1]
		f.idle = f.idle[:len(f.idle)-1]
		w := &f.ws[i]
		if !w.idle || !w.up || w.has {
			continue // stale entry
		}
		w.idle = false
		f.tryStart(i)
		return
	}
}

// assign installs a lease on worker i and schedules its completion.
func (f *fleet) assign(i int32, l jobs.Lease) {
	w := &f.ws[i]
	now := f.eng.Now()
	w.idle = false
	w.has = true
	w.lease = l
	w.epoch++
	w.done, w.mark = 0, now
	w.finish = now + float64(l.N)/w.tput
	f.scheduleCompletion(i)
	f.res.Leases++
	f.trace(evLease, uint64(i), l.ID, l.N)
}

// scheduleCompletion (re)schedules worker i's completion at its current
// projected finish and registers it as a potential steal victim. The
// captured epoch invalidates the event if anything — steal, slowdown,
// crash — changes the worker first.
func (f *fleet) scheduleCompletion(i int32) {
	w := &f.ws[i]
	ep := w.epoch
	f.eng.Schedule(w.finish-f.eng.Now(), func() { f.complete(i, ep) })
	heap.Push(&f.strag, stragEntry{finish: w.finish, idx: i, epoch: ep})
}

// complete lands worker i's lease (if the epoch still matches) and
// moves the worker to its next piece of work.
func (f *fleet) complete(i int32, epoch uint64) {
	w := &f.ws[i]
	if !w.up || !w.has || w.epoch != epoch {
		return // superseded by steal, slowdown, or crash
	}
	now := f.eng.Now()
	l := w.lease
	w.has = false
	w.epoch++

	rep := &dispatch.Report{Tested: l.N}
	lo := l.Interval.Start.Uint64()
	if p, ok := f.plants[l.JobID]; ok && p >= lo && p < lo+l.N {
		rep.Found = [][]byte{[]byte(fmt.Sprintf("plant@%d", p))}
	}
	if f.svc.Commit(l, rep) {
		f.res.Commits++
		f.res.Tested += l.N
		f.res.Makespan = now
		if len(rep.Found) > 0 {
			f.foundJobs[l.JobID] = true
			if f.res.TimeToFind < 0 {
				f.res.TimeToFind = now
			}
		}
		f.trace(evCommit, uint64(i), l.ID, l.N)
		f.checkJobDone(l.JobID)
	} else {
		// The service requeued this lease before we finished (timeout
		// after a slowdown, or a crash/rejoin race): the work is wasted,
		// the coverage accounting is untouched.
		f.res.LateCommits++
		f.trace(evLate, uint64(i), l.ID, l.N)
	}
	if w.leaving {
		w.up, w.leaving = false, false
		f.trace(evLeave, uint64(i), 0, 0)
		return
	}
	f.tryStart(i)
}

func (f *fleet) checkJobDone(jobID string) {
	if f.doneJobs[jobID] {
		return
	}
	j, err := f.svc.Get(jobID)
	if err != nil || !j.State.Terminal() {
		return
	}
	f.doneJobs[jobID] = true
	f.trace(evJobDone, fnvStr(jobID), j.Tested, 0)
}

// trySteal points idle worker i at the straggler with the latest
// projected finish and splits that victim's lease at (just past) its
// current progress: the victim keeps what it is about to finish plus
// half the untested remainder, the thief takes the rest as a fresh
// lease. Returns false when no straggler is worth splitting.
func (f *fleet) trySteal(i int32) bool {
	now := f.eng.Now()
	for f.strag.Len() > 0 {
		top := f.strag[0]
		v := &f.ws[top.idx]
		if top.epoch != v.epoch || !v.has || !v.up {
			heap.Pop(&f.strag)
			continue
		}
		done := v.done + (now-v.mark)*v.tput
		// What the thief KNOWS about the victim is quantized to the last
		// progress mark; what the victim has DONE keeps advancing. The
		// split is planned from knowledge and clamped by reality, exactly
		// like the live fleet's shrink ack.
		known := done
		if p := f.cfg.ProgressEvery; p > 0 {
			known = v.done + math.Floor((now-v.mark)/p)*p*v.tput
			if known > done {
				known = done
			}
			if known < 0 {
				known = 0
			}
		}
		remain := float64(v.lease.N) - known
		if remain < float64(f.cfg.minSteal()) {
			// The biggest straggler's tail is below the threshold;
			// smaller ones won't be better.
			return false
		}
		keep := uint64(known) + uint64(math.Ceil(remain/2))
		if fk := float64(keep); fk < done {
			// Stale mark: the victim already tested past the planned
			// split; the handshake moves the boundary to its true
			// progress (ack at cut > keep).
			keep = uint64(math.Ceil(done))
		}
		if keep >= v.lease.N {
			return false
		}
		heap.Pop(&f.strag) // stale after the split either way
		nl, ok := f.svc.Steal(v.lease, keep, int(i))
		if !ok {
			// Lease already expired service-side, or the job does not
			// allow stealing; try the next straggler.
			continue
		}
		vi := top.idx
		v.lease.N = keep
		v.lease.Interval, _ = v.lease.Interval.Take(keep)
		v.done, v.mark = done, now
		v.epoch++
		v.finish = now + (float64(keep)-done)/v.tput
		f.scheduleCompletion(vi)

		f.res.Steals++
		f.res.StolenKeys += nl.N
		h := f.stealH
		h = fnvMix(h, math.Float64bits(now))
		h = fnvMix(h, uint64(i))
		h = fnvMix(h, uint64(vi))
		h = fnvMix(h, nl.N)
		f.stealH = h
		f.trace(evSteal, uint64(i), uint64(vi), nl.N)
		f.assign(i, nl)
		return true
	}
	return false
}

// churn applies one scheduled perturbation. Handlers are idempotent
// against state drift (a Leave for a down worker is a no-op), so a
// generated schedule never needs to be consistent with runtime state.
func (f *fleet) churn(ev ChurnEvent) {
	w := &f.ws[ev.Worker]
	i := int32(ev.Worker)
	switch ev.Kind {
	case ChurnJoin:
		if w.up {
			return
		}
		w.up, w.leaving = true, false
		f.trace(evJoin, uint64(i), 0, 0)
		f.tryStart(i)
	case ChurnLeave:
		if !w.up || w.leaving {
			return
		}
		if w.has {
			w.leaving = true // drain: finish the current lease first
			return
		}
		w.up = false
		f.trace(evLeave, uint64(i), 0, 0)
	case ChurnCrash:
		if !w.up {
			return
		}
		w.up, w.leaving, w.has = false, false, false
		w.epoch++ // cancels any scheduled completion
		f.res.Crashes++
		f.trace(evCrash, uint64(i), 0, 0)
		// The in-flight lease (if any) is recovered by the service's
		// lease timeout; until then its keys are simply dark.
	case ChurnSlow:
		if !w.up || ev.Factor <= 0 {
			return
		}
		now := f.eng.Now()
		if w.has {
			w.done += (now - w.mark) * w.tput
			if w.done > float64(w.lease.N) {
				w.done = float64(w.lease.N)
			}
			w.mark = now
		}
		w.tput *= ev.Factor
		if w.tput < 1e-3 {
			w.tput = 1e-3
		}
		f.trace(evSlow, uint64(i), math.Float64bits(ev.Factor), 0)
		if w.has {
			w.epoch++
			rem := float64(w.lease.N) - w.done
			if rem < 0 {
				rem = 0
			}
			w.finish = now + rem/w.tput
			f.scheduleCompletion(i)
		}
	}
}
