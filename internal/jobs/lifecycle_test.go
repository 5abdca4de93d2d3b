package jobs

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
)

// TestLifecycleExplore runs every interleaving of the lease lifecycle's
// transitions, to a bounded depth, over two executors whose loops it
// models (two per executor: one holds a queued lease while the other
// searches) and a store it models (durable checkpoints and job states,
// a log that can die). The events are issue, begin, a progress mark,
// search done, search done short of its lease (a report that tested
// half), search failed, executor gone, settle, reclaim, a steal
// with its shrink handshake answered at keep, past keep or refused,
// flush start, fsync ok, fsync error, fsync ok with the log dying before
// the DONE record, expiry of any live lease, pause, resume, cancel, and
// one crash that reopens the store from what is durable. Visited states
// are de-duplicated. After every event it asserts:
//
//   - tiling: every key is acknowledged once or lies in its job's durable
//     remaining set, never both, and in memory a running job's table,
//     unflushed leases and acknowledged spans tile its space, after
//     recovery too;
//   - an acknowledged lease is durable (the same check, seen from the ack);
//   - a key is searched twice only if its first lease was never
//     acknowledged: a lease that began after the one acknowledged for a
//     key never completes a search of it;
//   - DONE is written only over a durable checkpoint whose remaining set
//     is empty or which meets the quota, and whose tested count is the
//     whole space unless the quota is met;
//   - a requeue is an incident exactly for a failed search, a short
//     report, an expiry or a stolen tail whose victim was gone, and a
//     lease goes back without one only if it never began;
//   - a search begins only while its job is RUNNING, and a lease is
//     pinned only while its shrink handshake is in flight.
func TestLifecycleExplore(t *testing.T) {
	for _, cfg := range []*exConfig{
		// One lease of six keys: a steal from it acks at keep 4 or past it at 5.
		{name: "one lease", share: 6, depth: 12, jobs: []exJob{{tenant: "a", size: 6, steal: true, solution: -1}}},
		{name: "two leases", share: 2, depth: 11, jobs: []exJob{{tenant: "a", size: 4, solution: -1}}},
		// The second job stops at its quota: its first key is a solution.
		{name: "two jobs", share: 2, depth: 10, jobs: []exJob{
			{tenant: "a", size: 2, solution: -1},
			{tenant: "b", size: 2, quota: 1, solution: 0},
		}},
	} {
		depth := cfg.depth
		if raceEnabled {
			depth -= 3 // the race detector runs the explorer about ten times slower
		}
		t0 := time.Now()
		states, trace, err := explore(cfg, depth)
		if err != nil {
			t.Fatalf("%s: %v\ntrace (%d events): %s", cfg.name, err, len(trace), formatTrace(trace))
		}
		t.Logf("%s: depth %d, %d states, %v", cfg.name, depth, states, time.Since(t0).Round(time.Millisecond))
	}
}

// explore visits every state reachable in at most depth events,
// breadth first, so a violation comes with a shortest trace.
func explore(cfg *exConfig, depth int) (states int, trace []event, err error) {
	seen := map[[16]byte]bool{newWorld(cfg).key(): true}
	frontier := [][]event{nil}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next [][]event
		for _, path := range frontier {
			for _, e := range replay(cfg, path).events() {
				p := append(slices.Clip(path), e)
				w := replay(cfg, p)
				if w.check(); w.err != nil {
					return len(seen), p, w.err
				}
				if k := w.key(); !seen[k] {
					seen[k] = true
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	return len(seen), nil, nil
}

// replay builds the world a path of events leads to. Two executors keep
// every choice the lifecycle makes deterministic: an idle executor has
// one other executor to reclaim from or steal from, and that one has at
// most one queued and one running lease.
func replay(cfg *exConfig, path []event) *world {
	w := newWorld(cfg)
	for _, e := range path {
		w.apply(e)
	}
	return w
}

// exJob is a job of an explored world; every job starts PENDING.
type exJob struct {
	tenant   string
	size     uint64
	steal    bool
	quota    int   // Spec.MaxSolutions
	solution int64 // the key whose search finds a solution, or -1
}

type exConfig struct {
	name  string
	share uint64 // both executors' lease size
	jobs  []exJob
	depth int
}

type slotKind uint8

const (
	slotFree     slotKind = iota
	slotQueued            // next returned the lease; the loop waits for the token
	slotRunning           // begun: searching [start, end) with the token
	slotSearched          // the search is done and the token passed on; not yet settled
)

// exSlot is one executor loop.
type exSlot struct {
	kind slotKind
	le   *liveLease
	l    Lease
	end  uint64 // the worker searches [l.Interval.Start, end)
}

type exExec struct {
	slots [loopsPerExecutor]exSlot
	// hs is the steal whose shrink handshake the executor's leasing loop
	// waits on.
	hs *exHandshake
}

type exHandshake struct {
	victim, tail *liveLease
	keep         uint64
}

type exFlight struct {
	batch []*liveLease
	fl    []*jobFlush
}

// exStored is the store's durable record of a job.
type exStored struct {
	state     State
	remaining []keyspace.Interval
	tested    uint64
	found     int
}

type world struct {
	cfg     *exConfig
	lc      *lifecycle
	execs   [2]exExec
	store   []exStored
	dead    bool // the log is dead: every write fails until a crash reopens it
	crashed bool
	// flight is the flush between its start and its fsync.
	flight *exFlight
	// rank orders leases by when they began searching (0: never began).
	begun int
	rank  map[*liveLease]int
	acked map[*liveLease]bool
	// Per job and key: the rank of the lease acknowledged for it, and the
	// highest rank of a lease that completed a search of it.
	ackedBy, lastSearch [][]int
	err                 error
}

var errLogDead = errors.New("log dead")

func jobName(j int) string   { return [...]string{"j0", "j1"}[j] }
func jobIndex(id string) int { return int(id[1] - '0') }

func newWorld(cfg *exConfig) *world {
	w := &world{cfg: cfg, rank: map[*liveLease]int{}, acked: map[*liveLease]bool{}}
	for _, j := range cfg.jobs {
		w.store = append(w.store, exStored{state: StatePending, remaining: []keyspace.Interval{keyspace.NewInterval(0, int64(j.size))}})
		w.ackedBy = append(w.ackedBy, make([]int, j.size))
		w.lastSearch = append(w.lastSearch, make([]int, j.size))
	}
	w.open()
	return w
}

// open starts a lifecycle over the store as Service.start does: every
// RUNNING job resumes from its durable checkpoint.
func (w *world) open() {
	n := len(w.execs)
	w.lc = &lifecycle{sched: newScheduler(SchedOptions{}), active: map[string]*activeJob{}, every: 1, minSteal: 1,
		shares: []uint64{w.cfg.share, w.cfg.share}, shrink: []bool{true, true}, retired: make([]bool, n), lastJob: make([]string, n)}
	w.dead = false
	for j := range w.store {
		if w.store[j].state == StateRunning {
			w.activate(j)
		}
	}
}

func (w *world) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// setState is Store.SetState.
func (w *world) setState(j int, to State) error {
	if !validTransition(w.store[j].state, to) {
		return ErrTransition
	}
	if w.dead {
		return errLogDead
	}
	w.store[j].state = to
	return nil
}

// activate, admit and finishIfDone mirror Service.activateLocked,
// admitLocked and finishIfDoneLocked.
func (w *world) activate(j int) {
	a := w.lc.resume(jobName(j))
	if a == nil {
		st, spec := w.store[j], w.cfg.jobs[j]
		found := make([][]byte, st.found)
		for i := range found {
			found[i] = []byte("key")
		}
		job := Job{ID: jobName(j), Tenant: spec.tenant, Spec: Spec{Steal: spec.steal, MaxSolutions: spec.quota}}
		a = w.lc.activate(job, dispatch.NewCheckpoint(st.remaining, st.tested, found))
	}
	w.finishIfDone(a)
}

func (w *world) admit() {
	if w.lc.halted {
		return
	}
	for j := range w.store {
		if w.store[j].state != StatePending || len(w.lc.active) >= (SchedOptions{}).maxRunning() {
			continue
		}
		if w.setState(j, StateRunning) != nil {
			return
		}
		w.activate(j)
	}
}

func (w *world) finishIfDone(a *activeJob) {
	if _, ok := w.lc.doneReady(a); !ok {
		return
	}
	j := jobIndex(a.id)
	st, quota := w.store[j], w.cfg.jobs[j].quota
	switch err := w.setState(j, StateDone); {
	case err == nil:
		if len(st.remaining) > 0 && (quota == 0 || st.found < quota) {
			w.fail("%s turned DONE over a durable checkpoint with %v remaining and %d found", a.id, st.remaining, st.found)
		}
		if size := w.cfg.jobs[j].size; st.tested != size && (quota == 0 || st.found < quota) {
			w.fail("%s turned DONE having tested %d of %d keys", a.id, st.tested, size)
		}
		w.lc.stop(a.id)
	case !errors.Is(err, ErrTransition):
		w.lc.dead = err
	}
}

// requeued checks a requeue's accounting against the event that caused
// it: incident is what the event should count.
func (w *world) requeued(r requeue, incident bool) {
	if r.le == nil {
		return
	}
	if r.incident != incident {
		w.fail("requeue of %v counted as an incident: %v, want %v", r.le.Interval, r.incident, incident)
	}
	if !r.incident && w.rank[r.le] > 0 {
		w.fail("lease %v went back to its pool without an incident after it began searching", r.le.Interval)
	}
}

// ack records a lease the lifecycle acknowledged.
func (w *world) ack(le *liveLease) {
	if w.acked[le] {
		return
	}
	w.acked[le] = true
	j, r := jobIndex(le.State.job.id), w.rank[le]
	for k := le.Interval.Start.Uint64(); k < le.Interval.End.Uint64(); k++ {
		if w.ackedBy[j][k] != 0 {
			w.fail("key %d of %s acknowledged twice", k, jobName(j))
		}
		if w.lastSearch[j][k] > r {
			w.fail("key %d of %s acknowledged by a lease that began before another search of it", k, jobName(j))
		}
		w.ackedBy[j][k] = r
	}
}

type evKind uint8

const (
	evIssue evKind = iota
	evReclaim
	evSteal
	evAckAtKeep
	evAckPastKeep
	evRefuse
	evBegin
	evProgress
	evSearchDone
	evSearchShort
	evSearchFail
	evGone
	evSettle
	evFlush
	evFsyncOK
	evFsyncError
	evFsyncOKThenDead
	evExpire
	evPause
	evResume
	evCancel
	evCrash
)

var evNames = [...]string{"issue", "reclaim", "steal", "ack-at-keep", "ack-past-keep", "refuse", "begin", "progress",
	"search-done", "search-short", "search-fail", "gone", "settle", "flush", "fsync-ok", "fsync-error", "fsync-ok-then-dead",
	"expire", "pause", "resume", "cancel", "crash"}

// event is one step: kind, with a the executor or job and b a slot or a
// live lease's index.
type event struct {
	kind evKind
	a, b uint8
}

func (e event) String() string {
	switch e.kind {
	case evFlush, evFsyncOK, evFsyncError, evFsyncOKThenDead, evCrash:
		return evNames[e.kind]
	case evSettle, evExpire:
		return fmt.Sprintf("%s(%d,%d)", evNames[e.kind], e.a, e.b)
	}
	return fmt.Sprintf("%s(%d)", evNames[e.kind], e.a)
}

func formatTrace(path []event) string {
	s := make([]string, len(path))
	for i, e := range path {
		s[i] = e.String()
	}
	return strings.Join(s, " → ")
}

func (ex *exExec) find(kind slotKind) *exSlot {
	for i := range ex.slots {
		if ex.slots[i].kind == kind {
			return &ex.slots[i]
		}
	}
	return nil
}

// busy reports whether executor i has a lease searching, as the
// lifecycle counts it.
func (w *world) busy(i int) bool {
	for _, a := range w.lc.active {
		for _, le := range a.leases.Live() {
			if le.State.exec == i && (le.State.phase == phaseRunning || le.State.phase == phaseShrinking) {
				return true
			}
		}
	}
	return false
}

// events lists what may happen next.
func (w *world) events() []event {
	var out []event
	add := func(k evKind, a, b int) { out = append(out, event{k, uint8(a), uint8(b)}) }
	for i := range w.execs {
		ex := &w.execs[i]
		// A loop is in next: it holds the queue and no lease yet.
		if ex.hs == nil && ex.find(slotQueued) == nil && ex.find(slotFree) != nil && w.lc.mayLease(i) {
			if w.leasable() {
				add(evIssue, i, 0)
			}
			if !w.busy(i) && w.busy(1-i) {
				add(evReclaim, i, 0)
				add(evSteal, i, 0)
			}
		}
		if hs := ex.hs; hs != nil {
			if s := w.searching(hs.victim); s != nil {
				add(evAckAtKeep, i, 0)
				if hs.tail.N >= 2 {
					add(evAckPastKeep, i, 0)
				}
			}
			add(evRefuse, i, 0)
		}
		if ex.find(slotQueued) != nil && ex.find(slotRunning) == nil {
			add(evBegin, i, 0)
		}
		if s := ex.find(slotRunning); s != nil {
			if le := w.lc.live(s.l.JobID, s.l.ID); le == s.le && le.State.progress == 0 && le.N >= 2 {
				add(evProgress, i, 0)
			}
			add(evSearchDone, i, 0)
			if s.end-s.l.Interval.Start.Uint64() >= 2 {
				add(evSearchShort, i, 0)
			}
			add(evSearchFail, i, 0)
			add(evGone, i, 0)
		}
		for k, s := range ex.slots {
			if s.kind == slotSearched {
				add(evSettle, i, k)
			}
		}
	}
	if !w.lc.flushing && len(w.lc.pending) > 0 {
		add(evFlush, 0, 0)
	}
	if w.flight != nil {
		add(evFsyncOK, 0, 0)
		if !w.dead {
			add(evFsyncError, 0, 0)
			if slices.ContainsFunc(w.flight.fl, func(f *jobFlush) bool { return f.final }) {
				add(evFsyncOKThenDead, 0, 0)
			}
		}
	}
	for j, st := range w.store {
		if a := w.lc.active[jobName(j)]; a != nil {
			// A stolen tail has no timer until its handshake settles; a
			// victim's may have fired just before the steal stopped it.
			for k, le := range a.leases.Live() {
				if le.State.phase != phaseStolen {
					add(evExpire, j, k)
				}
			}
		}
		if !w.dead && validTransition(st.state, StatePaused) {
			add(evPause, j, 0)
		}
		if !w.dead && st.state == StatePaused {
			add(evResume, j, 0)
		}
		if !w.dead && validTransition(st.state, StateCancelled) {
			add(evCancel, j, 0)
		}
	}
	if !w.crashed {
		add(evCrash, 0, 0)
	}
	return out
}

// leasable reports whether an issue can hand out work: a runnable job, or
// one admission would activate.
func (w *world) leasable() bool {
	for _, a := range w.lc.active {
		if a.runnable() {
			return true
		}
	}
	return !w.dead && slices.ContainsFunc(w.store, func(st exStored) bool { return st.state == StatePending })
}

// searching returns the loop whose running search is lease le's.
func (w *world) searching(le *liveLease) *exSlot {
	for i := range w.execs {
		if s := w.execs[i].find(slotRunning); s != nil && s.le == le {
			return s
		}
	}
	return nil
}

func (w *world) apply(e event) {
	i := int(e.a)
	ex := &w.execs[i%len(w.execs)]
	var done []*liveLease // a batch whose fsync came back
	switch e.kind {
	case evIssue:
		w.admit()
		if le, _ := w.lc.issue(i, phaseQueued); le != nil {
			*ex.find(slotFree) = exSlot{kind: slotQueued, le: le, l: leaseOf(le)}
		}
	case evReclaim:
		_, r := w.lc.reclaim(i)
		w.requeued(r, false)
	case evSteal:
		if victim, tail, keep := w.lc.steal(i); victim != nil {
			ex.hs = &exHandshake{victim: victim, tail: tail, keep: keep}
		}
	case evAckAtKeep, evAckPastKeep, evRefuse:
		hs := ex.hs
		ex.hs = nil
		cut, ok := hs.keep, e.kind != evRefuse
		if e.kind == evAckPastKeep {
			cut++
		}
		if ok {
			s := w.searching(hs.victim)
			s.end = s.l.Interval.Start.Uint64() + cut
		}
		tail, _, r := w.lc.settleSteal(hs.tail.State.job.id, hs.victim.ID, hs.tail.ID, hs.keep, cut, ok)
		w.requeued(r, true)
		if tail != nil {
			*ex.find(slotFree) = exSlot{kind: slotQueued, le: tail, l: leaseOf(tail)}
		}
	case evBegin:
		s := ex.find(slotQueued)
		ok, r := w.lc.begin(i, s.l.JobID, s.l.ID)
		w.requeued(r, false)
		if !ok {
			*s = exSlot{}
			break
		}
		if st := w.store[jobIndex(s.l.JobID)].state; st != StateRunning {
			w.fail("lease %v of a %v job began searching", s.l.Interval, st)
		}
		w.begun++
		w.rank[s.le] = w.begun
		s.kind, s.end = slotRunning, s.l.Interval.End.Uint64()
	case evProgress:
		s := ex.find(slotRunning)
		w.lc.progress(s.l.JobID, s.l.ID, 1)
	case evSearchDone, evSearchShort:
		s := ex.find(slotRunning)
		j, r, start := jobIndex(s.l.JobID), w.rank[s.le], s.l.Interval.Start.Uint64()
		if e.kind == evSearchShort {
			s.end = start + (s.end-start)/2
		}
		for k := start; k < s.end; k++ {
			if a := w.ackedBy[j][k]; a != 0 && r > a {
				w.fail("key %d of %s searched again by a lease that began after the one acknowledged for it", k, s.l.JobID)
			}
			w.lastSearch[j][k] = max(w.lastSearch[j][k], r)
		}
		s.kind = slotSearched
	case evSearchFail, evGone:
		s := ex.find(slotRunning)
		r, _ := w.lc.fail(s.l)
		w.requeued(r, true)
		*s = exSlot{}
		if e.kind == evGone {
			w.lc.retired[i] = true
		}
	case evSettle:
		s := &ex.slots[e.b]
		start := s.l.Interval.Start.Uint64()
		rep := &dispatch.Report{Tested: s.end - start}
		if sol := w.cfg.jobs[jobIndex(s.l.JobID)].solution; sol >= 0 && uint64(sol) >= start && uint64(sol) < s.end {
			rep.Found = [][]byte{[]byte("key")}
		}
		_, _, r := w.lc.settle(s.l, rep)
		w.requeued(r, true)
		*s = exSlot{}
	case evFlush:
		batch, fl := w.lc.flushStart()
		w.flight = &exFlight{batch, fl}
	case evFsyncOK, evFsyncError, evFsyncOKThenDead:
		done = w.fsync(e.kind)
	case evExpire:
		le := w.lc.active[jobName(i)].leases.Live()[e.b]
		w.requeued(w.lc.expire(jobName(i), le.ID), true)
	case evPause, evCancel:
		to := StatePaused
		if e.kind == evCancel {
			to = StateCancelled
		}
		if w.setState(i, to) == nil {
			w.lc.stop(jobName(i))
		}
	case evResume:
		w.setState(i, StatePending)
	case evCrash:
		// Every search, handshake and write in flight is lost.
		w.crashed, w.flight = true, nil
		w.execs = [2]exExec{}
		w.open()
	}
	w.scanAcks(w.lc.pending)
	if w.flight != nil {
		w.scanAcks(w.flight.batch)
	}
	w.scanAcks(done)
}

// scanAcks records the acknowledged leases among leases: a manual
// Commit returns as soon as its lease's phase says so.
func (w *world) scanAcks(leases []*liveLease) {
	for _, le := range leases {
		if le.State.phase == phaseAcked {
			w.ack(le)
		}
	}
}

// fsync mirrors the second half of Service.flush: the store takes each
// checkpoint (or fails it), the lifecycle the outcome, and the service
// writes FAILED and DONE records.
func (w *world) fsync(kind evKind) []*liveLease {
	fl, batch := w.flight.fl, w.flight.batch
	w.flight = nil
	if kind == evFsyncError {
		w.dead = true
	}
	for _, f := range fl {
		st := &w.store[jobIndex(f.a.id)]
		switch {
		case st.state.Terminal():
			f.err = ErrTransition
		case w.dead:
			f.err = errLogDead
		default:
			st.remaining, st.tested, st.found = f.cp.Remaining, f.cp.Tested, len(f.cp.Found)
			f.job = Job{State: st.state}
		}
	}
	if kind == evFsyncOKThenDead {
		w.dead = true
	}
	w.lc.flushDone(batch, fl)
	w.scanAcks(batch)
	for _, f := range fl {
		if f.phase == phaseFailed {
			if err := w.setState(jobIndex(f.a.id), StateFailed); err != nil && !errors.Is(err, ErrTransition) {
				w.lc.dead = err
			}
		}
		if f.phase == phaseAcked && f.final {
			w.finishIfDone(f.a)
		}
	}
	return batch
}

// check asserts the tiling invariants.
func (w *world) check() {
	for j, st := range w.store {
		size := w.cfg.jobs[j].size
		durable := make([]int, size)
		for _, iv := range st.remaining {
			for k := iv.Start.Uint64(); k < iv.End.Uint64(); k++ {
				durable[k]++
			}
		}
		for k := range durable {
			acked := w.ackedBy[j][k] != 0
			switch {
			case acked && durable[k] > 0:
				w.fail("key %d of %s is acknowledged but not durable", k, jobName(j))
			case !acked && durable[k] != 1:
				w.fail("key %d of %s is in %d durable remaining intervals and not acknowledged", k, jobName(j), durable[k])
			}
		}
		a := w.lc.active[jobName(j)]
		if a == nil {
			continue
		}
		for _, le := range a.leases.Live() {
			if le.State.phase.pinned() && !slices.ContainsFunc(w.execs[:], func(ex exExec) bool {
				return ex.hs != nil && (ex.hs.victim == le || ex.hs.tail == le)
			}) {
				w.fail("lease %v is pinned with no handshake in flight", le.Interval)
			}
		}
		if w.dead || w.lc.dead != nil || st.state != StateRunning && st.state != StatePaused {
			continue
		}
		mem := make([]int, size)
		cover := func(iv keyspace.Interval) {
			for k := iv.Start.Uint64(); k < iv.End.Uint64(); k++ {
				mem[k]++
			}
		}
		for _, iv := range a.leases.Remaining() {
			cover(iv)
		}
		unflushed := slices.Clone(w.lc.pending)
		if w.flight != nil {
			unflushed = append(unflushed, w.flight.batch...)
		}
		for _, le := range unflushed {
			if le.State.job == a && le.State.phase != phaseAcked {
				cover(le.Interval)
			}
		}
		for k := range mem {
			if w.ackedBy[j][k] != 0 {
				mem[k]++
			}
			if mem[k] != 1 {
				w.fail("key %d of %s is held %d times in memory (table, unflushed, acknowledged)", k, jobName(j), mem[k])
			}
		}
	}
}

// inView lists the leases the lifecycle or the loops still hold.
func (w *world) inView() []*liveLease {
	out := slices.Clone(w.lc.pending)
	for _, a := range w.lc.active {
		out = append(out, a.leases.Live()...)
	}
	if w.flight != nil {
		out = append(out, w.flight.batch...)
	}
	for _, ex := range w.execs {
		for _, s := range ex.slots {
			out = append(out, s.le)
		}
		if ex.hs != nil {
			out = append(out, ex.hs.victim, ex.hs.tail)
		}
	}
	return out
}

// key identifies a state for de-duplication: everything that decides
// what can happen next and what the checks see, with lease IDs and begin
// ranks replaced by their order.
func (w *world) key() [16]byte {
	ranks := []int{0}
	for _, le := range w.inView() {
		ranks = append(ranks, w.rank[le])
	}
	for j := range w.ackedBy {
		ranks = append(append(ranks, w.ackedBy[j]...), w.lastSearch[j]...)
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	var b []byte
	num := func(vs ...uint64) {
		for _, v := range vs {
			b = append(strconv.AppendUint(b, v, 10), ',')
		}
	}
	flag := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	rank := func(r int) uint64 { i, _ := slices.BinarySearch(ranks, r); return uint64(i) }
	ivs := func(ivs []keyspace.Interval) {
		for _, iv := range ivs {
			num(iv.Start.Uint64(), iv.End.Uint64())
		}
		b = append(b, ';')
	}
	lease := func(le *liveLease) {
		if le == nil {
			b = append(b, '-')
			return
		}
		st := le.State
		num(uint64(jobIndex(st.job.id)), le.Interval.Start.Uint64(), le.Interval.End.Uint64(), uint64(st.phase),
			uint64(st.exec), st.progress, rank(w.rank[le]), flag(w.acked[le]))
		b = append(b, ';')
	}
	num(flag(w.dead), flag(w.crashed), flag(w.lc.dead != nil), flag(w.lc.retired[0]), flag(w.lc.retired[1]))
	for j, st := range w.store {
		b = append(b, '|')
		num(uint64(st.state), st.tested, uint64(st.found))
		ivs(st.remaining)
		for k := range w.ackedBy[j] {
			num(rank(w.ackedBy[j][k]), rank(w.lastSearch[j][k]))
		}
		if a := w.lc.active[jobName(j)]; a != nil {
			num(flag(a.stopLeasing), a.tested, uint64(len(a.found)), uint64(a.sinceCP), uint64(a.unflushed))
			ivs(a.leases.Remaining())
			for _, le := range a.leases.Live() {
				lease(le)
			}
		}
		b = strconv.AppendFloat(b, w.lc.sched.served[w.cfg.jobs[j].tenant], 'g', -1, 64)
	}
	b = append(b, 'P')
	for _, le := range w.lc.pending {
		lease(le)
	}
	if w.flight != nil {
		b = append(b, 'F')
		for _, le := range w.flight.batch {
			lease(le)
		}
		for _, f := range w.flight.fl {
			num(uint64(jobIndex(f.a.id)), flag(f.final), flag(f.found))
			ivs(f.cp.Remaining)
		}
	}
	for _, ex := range w.execs {
		b = append(b, 'X')
		for _, s := range ex.slots {
			num(uint64(s.kind), s.end)
			lease(s.le)
		}
		if ex.hs != nil {
			num(ex.hs.keep)
			lease(ex.hs.victim)
			lease(ex.hs.tail)
		}
	}
	sum := sha256.Sum256(b)
	return [16]byte(sum[:16])
}
