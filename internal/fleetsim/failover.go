package fleetsim

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/shardplane"
	"keysearch/internal/sim"
)

// FailoverConfig describes one master-crash rehearsal: a worker fleet
// drives a replicating master service in virtual time; at CrashAt the
// master dies (losing the replication lag window, like in-flight frames
// on a severed link), and DetectAfter seconds later the warm replica is
// promoted and the fleet resumes against it.
type FailoverConfig struct {
	Workers          int
	Seed             int64
	TputMin, TputMax float64
	// LeaseSeconds is the target virtual duration of one lease
	// (default 30), as in Config.
	LeaseSeconds float64
	// CheckpointEvery throttles durable checkpoints (jobs.Options).
	CheckpointEvery int
	// ReplLag is the number of WAL records the replication link holds
	// back — the window a crash loses (0 = fully synchronous).
	ReplLag int
	// CrashAt is the virtual time of the master's death; negative runs
	// the no-crash baseline (the replica just tails along).
	CrashAt float64
	// DetectAfter is the virtual failure-detection delay: promotion
	// happens at CrashAt+DetectAfter.
	DetectAfter float64
	Submissions []Submission
	// MasterDir and ReplicaDir are the two stores' directories; they
	// must differ — the promotion must never read the master's disk.
	MasterDir, ReplicaDir string
	// EventBudget aborts a runaway simulation (0 = unlimited).
	EventBudget int64
	// OnCommit, when set, observes every committed lease; promoted
	// reports whether it landed on the promoted service.
	OnCommit func(promoted bool, jobID, tenant string, iv keyspace.Interval, tested uint64)
}

func (c FailoverConfig) leaseSeconds() float64 {
	if c.LeaseSeconds <= 0 {
		return 30
	}
	return c.LeaseSeconds
}

// FailoverResult is the trajectory of one rehearsal. Run has already
// audited the exactly-once invariant (promoted-phase commits tile the
// promotion-time remaining set exactly) before returning it.
type FailoverResult struct {
	CrashAt    float64 `json:"crash_at_s"`    // -1 on the baseline
	PromotedAt float64 `json:"promoted_at_s"` // -1 on the baseline
	// FirstCommitAfter is the virtual time of the first commit on the
	// promoted service (-1 = none): the service-level recovery latency
	// is FirstCommitAfter - CrashAt.
	FirstCommitAfter float64 `json:"first_commit_after_s"`
	Makespan         float64 `json:"makespan_s"`
	EngineEnd        float64 `json:"engine_end_s"`
	// ReplicaSeq is the replica's watermark at promotion (baseline: at
	// the end of the run).
	ReplicaSeq uint64 `json:"replica_seq"`
	// DroppedRecords is the lag-window records the crash lost.
	DroppedRecords int `json:"dropped_records"`
	// Tested counts work performed, not coverage: commits whose
	// checkpoint records died in the lag window are re-tested after
	// promotion, so Tested may exceed the total keyspace.
	Tested     uint64  `json:"tested"`
	Commits    uint64  `json:"commits"`
	JobsDone   int     `json:"jobs_done"`
	FoundJobs  int     `json:"found_jobs"`
	TimeToFind float64 `json:"time_to_find_s"` // -1 = never
}

// failover is one in-progress rehearsal.
type failover struct {
	cfg   FailoverConfig
	eng   *sim.Engine
	clock *sim.Virtual

	svc  *jobs.Service // the active service (master, then promoted)
	link *shardplane.Link
	rep  *jobs.Replica
	fol  *shardplane.Follower

	execs []jobs.Executor
	ws    []failWorker
	idle  []int32
	gen   uint64 // bumped at crash: invalidates every scheduled completion

	down     bool // between crash and promotion
	promoted bool
	err      error // first fatal failure, sticky; reported after the engine drains

	plants    map[string]uint64
	foundJobs map[string]bool
	doneJobs  map[string]bool

	// Exactness audit: the promotion-time remaining set per job, and
	// the spans the promoted service committed against it.
	remaining map[string][]keyspace.Interval
	spans     map[string][]keyspace.Interval

	res FailoverResult
}

type failWorker struct {
	tput  float64
	has   bool
	idle  bool
	epoch uint64
	lease jobs.Lease
}

// RehearseFailover runs one configured rehearsal to completion in
// virtual time and audits the exactly-once invariant: every lease the
// promoted service commits must tile the promotion-time remaining set
// exactly — no gap, no overlap, no key outside it. Deterministic for a
// fixed config (fresh directories assumed).
func RehearseFailover(cfg FailoverConfig) (*FailoverResult, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("fleetsim: Workers must be positive")
	}
	if cfg.TputMin <= 0 || cfg.TputMax < cfg.TputMin {
		return nil, fmt.Errorf("fleetsim: bad throughput range [%v, %v]", cfg.TputMin, cfg.TputMax)
	}
	if len(cfg.Submissions) == 0 {
		return nil, errors.New("fleetsim: no submissions")
	}
	if cfg.MasterDir == "" || cfg.ReplicaDir == "" || cfg.MasterDir == cfg.ReplicaDir {
		return nil, errors.New("fleetsim: MasterDir and ReplicaDir must be distinct")
	}
	if cfg.CrashAt >= 0 && cfg.DetectAfter < 0 {
		return nil, errors.New("fleetsim: negative DetectAfter")
	}

	eng := sim.NewEngine()
	if cfg.EventBudget > 0 {
		eng.SetBudget(cfg.EventBudget)
	}
	f := &failover{
		cfg:       cfg,
		eng:       eng,
		clock:     sim.NewVirtual(eng, time.Time{}),
		ws:        make([]failWorker, cfg.Workers),
		plants:    make(map[string]uint64),
		foundJobs: make(map[string]bool),
		doneJobs:  make(map[string]bool),
		remaining: make(map[string][]keyspace.Interval),
		spans:     make(map[string][]keyspace.Interval),
	}
	f.res = FailoverResult{CrashAt: -1, PromotedAt: -1, FirstCommitAfter: -1, TimeToFind: -1}

	rng := rand.New(rand.NewSource(cfg.Seed))
	f.execs = make([]jobs.Executor, cfg.Workers)
	for i := range f.ws {
		tput := cfg.TputMin + rng.Float64()*(cfg.TputMax-cfg.TputMin)
		f.ws[i] = failWorker{tput: tput}
		f.execs[i] = &simExec{
			name: fmt.Sprintf("w%06d", i),
			tn:   core.Tuning{MinBatch: uint64(tput*cfg.leaseSeconds()) + 1, Throughput: tput},
		}
	}

	// Replica first, then the master wired to feed it through the real
	// frame codec via the synchronous link.
	rep, err := jobs.OpenReplica(cfg.ReplicaDir, jobs.ReplicaOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	f.rep = rep
	f.fol = shardplane.NewFollower(rep)
	f.link = shardplane.NewLink(f.fol, cfg.ReplLag)

	store, err := jobs.Open(cfg.MasterDir, jobs.StoreOptions{
		NoSync:   true,
		Clock:    f.clock,
		OnAppend: f.link.OnAppend,
	})
	if err != nil {
		rep.Close()
		return nil, err
	}
	if err := f.link.Seed(store.ExportSnapshot); err != nil {
		store.Close()
		rep.Close()
		return nil, err
	}
	f.svc = jobs.NewService(store, f.execs, f.serviceOptions(false))
	if err := f.svc.StartManual(context.Background()); err != nil {
		store.Close()
		rep.Close()
		return nil, err
	}

	for _, sub := range cfg.Submissions {
		sub := sub
		eng.Schedule(sub.At, func() { f.submit(sub) })
	}
	eng.Schedule(0, func() {
		for i := range f.ws {
			f.tryStart(int32(i))
		}
	})
	if cfg.CrashAt >= 0 {
		eng.Schedule(cfg.CrashAt, f.crash)
		eng.Schedule(cfg.CrashAt+cfg.DetectAfter, f.promote)
	}

	f.res.EngineEnd = eng.Run()
	if eng.BudgetExceeded() {
		return nil, fmt.Errorf("fleetsim: event budget of %d exceeded at t=%v (runaway rehearsal)", cfg.EventBudget, eng.Now())
	}
	if err := f.link.Err(); err != nil {
		return nil, fmt.Errorf("fleetsim: replication link failed: %w", err)
	}
	if f.err != nil {
		return nil, f.err
	}
	if f.promoted {
		if err := f.auditTiling(); err != nil {
			return nil, err
		}
	} else {
		// Baseline: record where the tail ended up.
		f.res.ReplicaSeq = f.fol.Seq()
		f.rep.Close()
	}
	f.res.JobsDone = len(f.doneJobs)
	f.res.FoundJobs = len(f.foundJobs)
	if err := f.svc.Shutdown(context.Background()); err != nil && !f.down {
		return nil, err
	}
	store.Close() // the abandoned master store, when a crash happened
	res := f.res
	return &res, nil
}

func (f *failover) serviceOptions(promoted bool) jobs.Options {
	return jobs.Options{
		Clock:           f.clock,
		CheckpointEvery: f.cfg.CheckpointEvery,
		OnCommit: func(jobID, tenant string, iv keyspace.Interval, tested uint64) {
			if promoted {
				f.spans[jobID] = append(f.spans[jobID], iv.Clone())
				if f.res.FirstCommitAfter < 0 {
					f.res.FirstCommitAfter = f.eng.Now()
				}
			}
			if f.cfg.OnCommit != nil {
				f.cfg.OnCommit(promoted, jobID, tenant, iv, tested)
			}
		},
		OnRequeue: func(string) { f.wake() },
	}
}

func (f *failover) submit(sub Submission) {
	if f.down {
		return // the control plane is dead; this submission is lost
	}
	j, err := f.svc.Submit(sub.Tenant, sub.Priority, sub.Spec)
	if err != nil {
		return
	}
	if sub.Plant >= 0 {
		f.plants[j.ID] = uint64(sub.Plant)
	}
	f.wake()
}

func (f *failover) wake() {
	if len(f.idle) == 0 {
		return
	}
	f.eng.Schedule(0, func() {
		for len(f.idle) > 0 {
			i := f.idle[len(f.idle)-1]
			f.idle = f.idle[:len(f.idle)-1]
			if w := &f.ws[i]; w.idle && !w.has {
				w.idle = false
				f.tryStart(i)
				return
			}
		}
	})
}

func (f *failover) tryStart(i int32) {
	w := &f.ws[i]
	if f.down || w.has {
		return
	}
	l, ok := f.svc.TryLease(int(i))
	if !ok {
		if !w.idle {
			w.idle = true
			f.idle = append(f.idle, i)
		}
		return
	}
	w.has, w.idle = true, false
	w.lease = l
	w.epoch++
	ep, gen := w.epoch, f.gen
	f.eng.Schedule(float64(l.N)/w.tput, func() { f.complete(i, ep, gen) })
	f.wake() // one success chains the next idle attempt
}

func (f *failover) complete(i int32, epoch, gen uint64) {
	w := &f.ws[i]
	if gen != f.gen || epoch != w.epoch || !w.has {
		return // the crash superseded this completion
	}
	l := w.lease
	w.has = false
	rep := &dispatch.Report{Tested: l.N}
	lo := l.Interval.Start.Uint64()
	if p, ok := f.plants[l.JobID]; ok && p >= lo && p < lo+l.N {
		rep.Found = [][]byte{[]byte(fmt.Sprintf("plant@%d", p))}
	}
	if f.svc.Commit(l, rep) {
		f.res.Commits++
		f.res.Tested += l.N
		f.res.Makespan = f.eng.Now()
		if len(rep.Found) > 0 {
			f.foundJobs[l.JobID] = true
			if f.res.TimeToFind < 0 {
				f.res.TimeToFind = f.eng.Now()
			}
		}
		f.checkJobDone(l.JobID)
	}
	f.tryStart(i)
}

func (f *failover) checkJobDone(jobID string) {
	if f.doneJobs[jobID] {
		return
	}
	if j, err := f.svc.Get(jobID); err == nil && j.State.Terminal() {
		f.doneJobs[jobID] = true
	}
}

// crash kills the master mid-flight: every in-flight lease dies with
// it, and the replication lag window — records appended but not yet
// applied to the replica — is lost, exactly like unflushed frames on a
// severed connection.
func (f *failover) crash() {
	f.down = true
	f.gen++
	f.svc.Kill()
	f.res.DroppedRecords = f.link.Drop()
	f.res.CrashAt = f.eng.Now()
	for i := range f.ws {
		f.ws[i].has, f.ws[i].idle = false, false
	}
	f.idle = f.idle[:0]
}

// promote closes the replica and runs ordinary crash recovery over its
// directory — never touching the master's disk — then records the
// remaining set the exactness audit will check the promoted commits
// against, and puts the fleet back to work.
func (f *failover) promote() {
	f.res.ReplicaSeq = f.rep.Seq()
	if err := f.rep.Close(); err != nil {
		f.err = fmt.Errorf("fleetsim: closing replica: %w", err)
		return
	}
	store, err := jobs.Open(f.cfg.ReplicaDir, jobs.StoreOptions{NoSync: true, Clock: f.clock})
	if err != nil {
		f.err = fmt.Errorf("fleetsim: promoting replica: %w", err)
		return
	}
	for _, j := range store.List("") {
		cp, err := store.Progress(j.ID)
		if err != nil {
			f.err = err
			return
		}
		f.remaining[j.ID] = cp.Remaining
	}
	f.svc = jobs.NewService(store, f.execs, f.serviceOptions(true))
	if err := f.svc.StartManual(context.Background()); err != nil {
		f.err = err
		return
	}
	f.down = false
	f.promoted = true
	f.res.PromotedAt = f.eng.Now()
	for i := range f.ws {
		f.tryStart(int32(i))
	}
}

// auditTiling proves the exactly-once invariant: per job, the sorted
// promoted-phase spans must walk the promotion-time remaining set end
// to end with no gap, no overlap, and no span outside it.
func (f *failover) auditTiling() error {
	ids := make([]string, 0, len(f.remaining))
	for id := range f.remaining {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := tileError(id, f.remaining[id], f.spans[id]); err != nil {
			return err
		}
	}
	for id := range f.spans {
		if _, ok := f.remaining[id]; !ok {
			return fmt.Errorf("fleetsim: promoted commit on job %s, which had no remaining set at promotion", id)
		}
	}
	return nil
}

func tileError(jobID string, expected, spans []keyspace.Interval) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Cmp(spans[j].Start) < 0 })
	sort.Slice(expected, func(i, j int) bool { return expected[i].Start.Cmp(expected[j].Start) < 0 })
	si := 0
	for _, want := range expected {
		cursor := new(big.Int).Set(want.Start)
		for cursor.Cmp(want.End) < 0 {
			if si >= len(spans) {
				return fmt.Errorf("fleetsim: job %s: coverage gap at %s in [%s,%s)", jobID, cursor, want.Start, want.End)
			}
			sp := spans[si]
			if sp.Start.Cmp(cursor) != 0 {
				return fmt.Errorf("fleetsim: job %s: span starts at %s, cursor at %s (gap or overlap)", jobID, sp.Start, cursor)
			}
			if sp.End.Cmp(want.End) > 0 {
				return fmt.Errorf("fleetsim: job %s: span [%s,%s) crosses remaining-interval end %s", jobID, sp.Start, sp.End, want.End)
			}
			cursor.Set(sp.End)
			si++
		}
	}
	if si != len(spans) {
		return fmt.Errorf("fleetsim: job %s: %d committed spans beyond the remaining set", jobID, len(spans)-si)
	}
	return nil
}
