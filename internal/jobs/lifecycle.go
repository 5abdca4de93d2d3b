package jobs

import (
	"errors"
	"fmt"
	"slices"

	"keysearch/internal/dispatch"
)

// phase is where a lease stands. It is in its job's table while issued,
// queued, running, shrinking or stolen; it leaves requeued (back to the
// pool) or settled (counted in memory), and a flush ends a settled lease
// acknowledged (durable), discarded (its job turned terminal first) or
// failed (the write failed, and so does the job).
//
//	phase      next                                 driven by
//	issued     settled, requeued, split             manual drive, timer
//	queued     running, requeued                    executor loop, idle loop (reclaim), timer
//	running    settled, requeued, shrinking         executor loop, timer, idle loop (steal)
//	shrinking  running, settled, requeued           idle loop (handshake), executor loop
//	stolen     queued, or merged back / requeued    idle loop (handshake)
//	settled    flushing                             flusher, or Commit
//	flushing   acknowledged, discarded, failed      flusher, or Commit
type phase uint8

const (
	phaseIssued    phase = iota // handed out by TryLease or Steal (manual drive), searched at once
	phaseQueued                 // held by an executor loop behind that executor's running search
	phaseRunning                // its search has begun
	phaseShrinking              // running, with a shrink handshake in flight
	phaseStolen                 // the tail a handshake split off, pinned until it settles
	phaseRequeued
	phaseSettled
	phaseFlushing
	phaseAcked
	phaseDiscarded
	phaseFailed
)

// pinned reports a lease a shrink handshake holds: it neither expires nor
// is split again until the handshake settles.
func (p phase) pinned() bool { return p == phaseShrinking || p == phaseStolen }

// leaseState is what the lifecycle keeps per lease beside the interval,
// which the job's table owns.
type leaseState struct {
	job   *activeJob
	phase phase
	exec  int // the executor the lease was issued to
	// progress counts keys tested from the interval start: the live
	// search's latest mark (zero until the first: no victim before), then
	// the committed count. A refused shrink marks it fully tested.
	progress uint64
	found    bool                     // its report carried solutions
	timer    interface{ Stop() bool } // the service's expiry timer
}

// liveLease is one entry of a job's lease table.
type liveLease = dispatch.Entry[leaseState]

// leaseOf is the executor-facing view of a live lease.
func leaseOf(le *liveLease) Lease {
	a := le.State.job
	return Lease{ID: le.ID, JobID: a.id, Tenant: a.tenant, Spec: a.spec, Interval: le.Interval, N: le.N}
}

// lifecycle is the job service's lease and flush state machine: the
// active jobs, their lease tables and the fair-share scheduler. Its
// transitions take no lock, read no clock and write no store; each
// returns what its caller (the Service, under its mutex) must do.
type lifecycle struct {
	sched    *scheduler
	active   map[string]*activeJob
	every    int    // Options.CheckpointEvery
	minSteal uint64 // StealOptions.MinSteal

	// Per executor: lease size (0 = unusable), whether it can shrink a
	// running search, whether its loops have ended, the job it leased last.
	shares  []uint64
	shrink  []bool
	retired []bool
	lastJob []string
	seq     uint64 // the last lease ID issued

	halted bool  // draining, or the service context is done
	dead   error // a FAILED or DONE record could not be written: the log is dead

	pending  []*liveLease // settled since the last flush began
	flushing bool
}

// mayLease is the one guard on handing out work: executor i may take or
// start a lease while the service runs, the log lives, and i is usable
// and not retired.
func (lc *lifecycle) mayLease(i int) bool {
	return !lc.halted && lc.dead == nil && i >= 0 && i < len(lc.shares) && lc.shares[i] > 0 && !lc.retired[i]
}

func (lc *lifecycle) live(jobID string, id uint64) *liveLease {
	if a := lc.active[jobID]; a != nil {
		if le, ok := a.leases.Get(id); ok {
			return le
		}
	}
	return nil
}

func (lc *lifecycle) runnableTenants() []string {
	var out []string
	for _, a := range lc.active {
		if a.runnable() && !slices.Contains(out, a.tenant) {
			out = append(out, a.tenant)
		}
	}
	return out
}

// activate makes a RUNNING job schedulable from its durable checkpoint.
func (lc *lifecycle) activate(j Job, cp *dispatch.Checkpoint) *activeJob {
	spec := j.Spec
	spec.h = &Handle{spec: j.Spec, holds: make(map[any]func())}
	a := &activeJob{id: j.ID, tenant: j.Tenant, priority: j.Priority, spec: spec, subAt: j.SubmittedAt,
		leases: dispatch.NewTable[leaseState](cp.Remaining...), tested: cp.Tested, found: cp.Found}
	lc.active[j.ID] = a
	lc.sched.admit(a.tenant, lc.runnableTenants())
	return a
}

// resume lets a job a pause left with leases in flight lease again (nil
// when it drained). Its table, not the stored checkpoint that still counts
// those leases as remaining, is the live truth: rebuilding from the
// checkpoint would issue them a second time.
func (lc *lifecycle) resume(id string) *activeJob {
	a := lc.active[id]
	if a != nil {
		a.stopLeasing = false
		lc.sched.admit(a.tenant, lc.runnableTenants())
	}
	return a
}

// issue hands executor i its next lease, in phase ph, from the job the
// scheduler picks. preempted reports that the job i leased last still had
// work. Callers check mayLease(i).
func (lc *lifecycle) issue(i int, ph phase) (le *liveLease, preempted bool) {
	var runnable []*activeJob
	for _, a := range lc.active {
		if a.runnable() {
			runnable = append(runnable, a)
		}
	}
	a := lc.sched.pick(runnable)
	if a == nil {
		return nil, false
	}
	le, ok := a.leases.Issue(lc.seq+1, lc.shares[i])
	if !ok {
		return nil, false
	}
	lc.seq++
	le.State = leaseState{job: a, phase: ph, exec: i}
	lc.sched.charge(a.tenant, le.N)
	if prev := lc.lastJob[i]; prev != "" && prev != a.id {
		pa, ok := lc.active[prev]
		preempted = ok && pa.runnable()
	}
	lc.lastJob[i] = a.id
	return le, preempted
}

// requeue is a lease returned to its pool untested (le nil: none was).
// An incident is a failed search, an expiry or a steal whose victim was
// gone, not a lease taken back before it ran.
type requeue struct {
	le       *liveLease
	incident bool
}

func (lc *lifecycle) requeue(le *liveLease, incident bool) requeue {
	a := le.State.job
	a.leases.Requeue(le.ID)
	le.State.phase = phaseRequeued
	lc.sched.credit(a.tenant, le.N)
	lc.drop(a)
	return requeue{le: le, incident: incident}
}

// begin starts queued lease id on executor i. It reports false when the
// lease left the table while queued, or when i or its job may lease no
// more — then it goes back to its pool unsearched.
func (lc *lifecycle) begin(i int, jobID string, id uint64) (bool, requeue) {
	le := lc.live(jobID, id)
	if le == nil {
		return false, requeue{}
	}
	if !lc.mayLease(i) || le.State.job.stopLeasing {
		return false, lc.requeue(le, false)
	}
	le.State.phase = phaseRunning
	return true, requeue{}
}

// fail returns a lease whose search failed to its pool. late reports a
// lease its active job no longer holds: the timeout requeued it first.
func (lc *lifecycle) fail(l Lease) (r requeue, late bool) {
	if le := lc.live(l.JobID, l.ID); le != nil {
		return lc.requeue(le, true), false
	}
	return requeue{}, lc.active[l.JobID] != nil
}

// expire requeues a lease that outlived its timeout. A pinned lease is
// left alone: settleSteal re-arms its timer.
func (lc *lifecycle) expire(jobID string, id uint64) requeue {
	if le := lc.live(jobID, id); le != nil && !le.State.phase.pinned() {
		return lc.requeue(le, true)
	}
	return requeue{}
}

// reclaim reports whether executor i is idle (no search of its running)
// and then takes back one lease queued behind another executor's running
// search, so that i leases it now: without it, the last leases of a job
// wait behind busy executors while idle ones look on. A queued lease
// whose executor is not searching is about to start, and is left alone.
func (lc *lifecycle) reclaim(i int) (idle bool, r requeue) {
	busy := make([]bool, len(lc.shares))
	for _, a := range lc.active {
		for _, le := range a.leases.Live() {
			if ph := le.State.phase; ph == phaseRunning || ph == phaseShrinking {
				busy[le.State.exec] = true
			}
		}
	}
	if busy[i] {
		return false, requeue{}
	}
	for _, a := range lc.active {
		if a.stopLeasing {
			continue
		}
		for _, le := range a.leases.Live() {
			if st := le.State; st.phase == phaseQueued && st.exec != i && busy[st.exec] {
				return true, lc.requeue(le, false)
			}
		}
	}
	return true, requeue{}
}

// progress records a live search's tested-up-to mark, clamped to the
// lease (a shrunk lease keeps receiving marks from a worker that passed
// the split point). It reports a steal-enabled lease's first mark.
func (lc *lifecycle) progress(jobID string, id, done uint64) (first bool) {
	le := lc.live(jobID, id)
	if le == nil || min(done, le.N) <= le.State.progress {
		return false
	}
	first = le.State.progress == 0 && le.State.job.spec.Steal
	le.State.progress = min(done, le.N)
	return first
}

// settle takes a searched lease out of its table and counts its keys in
// memory, for the next flush. A lease no longer in the table is refused
// (late while its job is active): the timeout requeued it, and its
// re-issued lease will count the span. A report short of the lease as it
// stands — a steal may have lowered its N since the executor took it — is
// refused too, and the lease requeued as an incident: its untested tail
// would otherwise leave the table unsearched.
func (lc *lifecycle) settle(l Lease, rep *dispatch.Report) (le *liveLease, late bool, r requeue) {
	if le = lc.live(l.JobID, l.ID); le == nil {
		return nil, lc.active[l.JobID] != nil, requeue{}
	}
	if rep.Tested < le.N {
		return nil, false, lc.requeue(le, true)
	}
	a := le.State.job
	a.leases.Settle(le.ID)
	// A steal may have shrunk the lease after its worker passed the split
	// point: only the lease's own span counts, the surplus lies in the
	// stolen tail's lease.
	le.State.progress = le.N
	le.State.found = len(rep.Found) > 0
	le.State.phase = phaseSettled
	a.tested += le.State.progress
	a.found = append(a.found, rep.Found...)
	a.sinceCP++
	a.unflushed++
	lc.pending = append(lc.pending, le)
	return le, false, requeue{}
}

// jobFlush is one job's share of a flush: the checkpoint to write (nil
// when CheckpointEvery defers it), then the outcome.
type jobFlush struct {
	a     *activeJob
	cp    *dispatch.Checkpoint
	found bool // a lease of the batch found a solution
	final bool // cp's remaining set is empty or meets the quota: DONE follows it

	err   error
	job   Job   // the snapshot after the write
	phase phase // what the job's leases end in: acknowledged, discarded or failed
}

// flushStart takes every pending lease into phase flushing and builds
// each job's checkpoint from its table as it stands: every lease settled
// so far is in this batch or an earlier one, so the checkpoint covers
// exactly what the flush acknowledges. Nil while a flush runs or when
// nothing is pending.
func (lc *lifecycle) flushStart() (batch []*liveLease, fl []*jobFlush) {
	if lc.flushing || len(lc.pending) == 0 {
		return nil, nil
	}
	batch, lc.pending, lc.flushing = lc.pending, nil, true
	for _, le := range batch {
		le.State.phase = phaseFlushing
		i := slices.IndexFunc(fl, func(f *jobFlush) bool { return f.a == le.State.job })
		if i < 0 {
			i = len(fl)
			fl = append(fl, &jobFlush{a: le.State.job})
		}
		fl[i].found = fl[i].found || le.State.found
	}
	for _, f := range fl {
		a := f.a
		f.final = a.leases.Exhausted() || a.quotaMet()
		// A deferred checkpoint leaves the commits acknowledged in memory;
		// a crash before a later one re-searches them.
		if f.final || f.found || a.sinceCP >= lc.every {
			f.cp = dispatch.NewCheckpoint(a.leases.Remaining(), a.tested, a.found)
			a.sinceCP = 0 // a failed write fails the job: no later checkpoint counts on it
		}
	}
	return batch, fl
}

// flushDone takes a written batch's outcome. Per job, the leases are
// acknowledged when the write is durable, discarded when the job turned
// terminal before it, and failed when it failed: then the job stops
// leasing, and the service writes FAILED.
func (lc *lifecycle) flushDone(batch []*liveLease, fl []*jobFlush) {
	for _, f := range fl {
		switch {
		case errors.Is(f.err, ErrTransition) || errors.Is(f.err, ErrNotFound) || f.err == nil && f.job.State.Terminal():
			f.phase = phaseDiscarded
		case f.err != nil:
			f.phase = phaseFailed
			f.a.stopLeasing = true
		default:
			f.phase = phaseAcked
		}
	}
	for _, le := range batch {
		for _, f := range fl {
			if f.a == le.State.job {
				le.State.phase = f.phase
			}
		}
		le.State.job.unflushed--
		lc.drop(le.State.job)
	}
	lc.flushing = false
}

// doneReady reports whether job a may turn DONE, and why: its keyspace is
// exhausted or its quota met, and no settled lease waits for its flush.
func (lc *lifecycle) doneReady(a *activeJob) (reason string, ok bool) {
	exhausted := a.leases.Exhausted()
	if a.unflushed > 0 || !exhausted && !a.quotaMet() {
		return "", false
	}
	if !exhausted {
		reason = fmt.Sprintf("solution quota met (%d found)", len(a.found))
	}
	return reason, true
}

// stop ends leasing from job id (paused, cancelled or DONE) and returns
// it, or nil when it is not active. In-flight leases still settle.
func (lc *lifecycle) stop(id string) *activeJob {
	a := lc.active[id]
	if a != nil {
		a.stopLeasing = true
		lc.drop(a)
	}
	return a
}

// drop is the one place a job leaves the active set: once it leases no
// more, its live leases are gone and its settled ones flushed. (A job
// dropped before its flush could be resumed from a checkpoint that still
// lists the flushing leases, and search them twice.)
func (lc *lifecycle) drop(a *activeJob) {
	if a.stopLeasing && a.leases.Len() == 0 && a.unflushed == 0 {
		delete(lc.active, a.id)
	}
}

// split carves the tail beyond keep off live lease victim into a new
// lease for executor thief, in phase ph. The tenant was charged for the
// whole lease at issue, so the deficit stands.
func (lc *lifecycle) split(victim *liveLease, keep uint64, thief int, ph phase) *liveLease {
	a := victim.State.job
	tail, ok := a.leases.Split(victim.ID, keep, lc.seq+1)
	if !ok {
		return nil
	}
	lc.seq++
	tail.State = leaseState{job: a, phase: ph, exec: thief}
	lc.lastJob[thief] = a.id
	return tail
}

// stealAt is a steal in manual drive (see Service.Steal).
func (lc *lifecycle) stealAt(victim Lease, keep uint64, thief int) *liveLease {
	le := lc.live(victim.JobID, victim.ID)
	if le == nil || !lc.mayLease(thief) || !le.State.job.spec.Steal || le.State.job.stopLeasing || le.State.phase.pinned() {
		return nil
	}
	return lc.split(le, keep, thief, phaseIssued)
}

// steal splits, for idle executor thief, the running lease with the most
// remaining work by the balance-rule estimate (untested keys over its
// executor's share), among steal-enabled jobs on other, shrink-capable
// executors, with progress shown and at least 2×MinSteal untested; keep
// halves that remainder. The split comes before the shrink handshake and
// pins both halves, so no disposition racing the handshake — commit,
// fail or expiry of either half — can lose or double-count keys.
func (lc *lifecycle) steal(thief int) (victim, tail *liveLease, keep uint64) {
	var best float64
	for _, a := range lc.active {
		if !a.spec.Steal || a.stopLeasing {
			continue
		}
		for _, le := range a.leases.Live() {
			st := le.State
			if st.phase != phaseRunning || st.exec == thief || !lc.shrink[st.exec] || lc.shares[st.exec] == 0 ||
				st.progress == 0 || le.N-st.progress < 2*lc.minSteal {
				continue
			}
			if score := float64(le.N-st.progress) / float64(lc.shares[st.exec]); victim == nil || score > best {
				victim, best = le, score
			}
		}
	}
	if victim == nil {
		return nil, nil, 0
	}
	keep = victim.State.progress + (victim.N-victim.State.progress+1)/2
	if tail = lc.split(victim, keep, thief, phaseStolen); tail == nil {
		return nil, nil, 0
	}
	victim.State.phase = phaseShrinking
	return victim, tail, keep
}

// settleSteal finishes a shrink handshake: the victim's worker committed
// to cut (≥ keep when it had tested past the split point), or refused
// (ok = false). The victim may have been settled, failed or expired
// meanwhile. It returns the thief's lease (nil when nothing was stolen),
// the victim while live (to re-arm) and a requeued tail.
func (lc *lifecycle) settleSteal(jobID string, victimID, tailID, keep, cut uint64, ok bool) (tail, victim *liveLease, r requeue) {
	if tail = lc.live(jobID, tailID); tail == nil {
		return nil, nil, requeue{}
	}
	tail.State.phase = phaseQueued
	if victim = lc.live(jobID, victimID); victim != nil {
		victim.State.phase = phaseRunning
	}
	if ok && cut > keep && cut-keep >= tail.N {
		ok = false // the worker acks only a cut inside its interval; a guard, not a path
	}
	if !ok {
		// The victim still owns its whole interval: a live one takes the
		// tail back; a disposed one covered only the head.
		if tail.State.job.leases.Merge(victimID, tailID) {
			victim.State.progress = victim.N
			return nil, victim, requeue{}
		}
		return nil, nil, lc.requeue(tail, true)
	}
	// An ack past keep moves [keep, cut) back to a live victim; from a
	// disposed one the move is refused, and the thief re-searches it.
	if cut > keep {
		tail.State.job.leases.MoveBoundary(victimID, tailID, cut)
	}
	return tail, victim, requeue{}
}
