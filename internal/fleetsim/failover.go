package fleetsim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/shardplane"
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

// FailoverResult is the trajectory of one rehearsal. RehearseFailover
// has already audited the exactly-once invariant (promoted-phase commits
// tile the promotion-time remaining set exactly) before returning it.
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

// failover is one in-progress rehearsal: Run's fleet, driving first a
// replicating master and then the replica promoted in its place.
type failover struct {
	*fleet
	fcfg FailoverConfig

	master *jobs.Store
	rep    *jobs.Replica
	fol    *shardplane.Follower
	link   *shardplane.Link

	promoted bool
	err      error // first fatal failure, sticky; reported after the engine drains

	crashAt, promotedAt, firstCommitAfter float64
	replicaSeq                            uint64
	dropped                               int

	// Exactness audit: the promotion-time remaining set per job, and
	// the spans the promoted service committed against it.
	remaining map[string][]keyspace.Interval
	spans     map[string][]keyspace.Interval
}

// RehearseFailover runs one configured rehearsal to completion in
// virtual time and audits the exactly-once invariant: every lease the
// promoted service commits must tile the promotion-time remaining set
// exactly — no gap, no overlap, no key outside it. Deterministic for a
// fixed config (fresh directories assumed).
func RehearseFailover(cfg FailoverConfig) (res *FailoverResult, err error) {
	if cfg.MasterDir == "" || cfg.ReplicaDir == "" || cfg.MasterDir == cfg.ReplicaDir {
		return nil, errors.New("fleetsim: MasterDir and ReplicaDir must be distinct")
	}
	if cfg.CrashAt >= 0 && cfg.DetectAfter < 0 {
		return nil, errors.New("fleetsim: negative DetectAfter")
	}
	f := &failover{
		fcfg:             cfg,
		crashAt:          -1,
		promotedAt:       -1,
		firstCommitAfter: -1,
		remaining:        make(map[string][]keyspace.Interval),
		spans:            make(map[string][]keyspace.Interval),
	}
	f.fleet, err = newFleet(Config{
		Workers:         cfg.Workers,
		Seed:            cfg.Seed,
		TputMin:         cfg.TputMin,
		TputMax:         cfg.TputMax,
		LeaseSeconds:    cfg.LeaseSeconds,
		CheckpointEvery: cfg.CheckpointEvery,
		Submissions:     cfg.Submissions,
		Dir:             cfg.MasterDir,
		EventBudget:     cfg.EventBudget,
		OnCommit:        f.commit,
	})
	if err != nil {
		return nil, err
	}

	// Replica first, then the master wired to feed it through the real
	// frame codec via the synchronous link.
	if f.rep, err = jobs.OpenReplica(cfg.ReplicaDir, jobs.ReplicaOptions{NoSync: true}); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.close(); err == nil && cerr != nil {
			res, err = nil, cerr
		}
	}()
	f.fol = shardplane.NewFollower(f.rep)
	f.link = shardplane.NewLink(f.fol, cfg.ReplLag)
	f.master, err = jobs.Open(cfg.MasterDir, jobs.StoreOptions{
		NoSync:   true,
		Clock:    f.clock,
		OnAppend: f.link.OnAppend,
	})
	if err != nil {
		return nil, err
	}
	if err := f.link.Seed(f.master.ExportSnapshot); err != nil {
		return nil, err
	}
	if err := f.start(f.master); err != nil {
		return nil, err
	}
	f.begin()
	if cfg.CrashAt >= 0 {
		f.eng.Schedule(cfg.CrashAt, f.crash)
		f.eng.Schedule(cfg.CrashAt+cfg.DetectAfter, f.promote)
	}

	if err := f.run(); err != nil {
		return nil, err
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
		f.replicaSeq = f.fol.Seq()
	}
	return &FailoverResult{
		CrashAt:          f.crashAt,
		PromotedAt:       f.promotedAt,
		FirstCommitAfter: f.firstCommitAfter,
		Makespan:         f.res.Makespan,
		EngineEnd:        f.res.EngineEnd,
		ReplicaSeq:       f.replicaSeq,
		DroppedRecords:   f.dropped,
		Tested:           f.res.Tested,
		Commits:          f.res.Commits,
		JobsDone:         len(f.doneJobs),
		FoundJobs:        len(f.foundJobs),
		TimeToFind:       f.res.TimeToFind,
	}, nil
}

// close is the one teardown, on success and on every error path: it
// stops the live service and releases both stores. A crashed master's
// service is already dead, and its store was abandoned, not closed, so
// that close's error is not the rehearsal's.
func (f *failover) close() error {
	var err error
	if f.svc != nil && !f.down {
		err = f.svc.Shutdown(context.Background())
	}
	if f.master != nil {
		f.master.Close()
	}
	if rerr := f.rep.Close(); err == nil {
		err = rerr
	}
	return err
}

// commit observes every lease the active service commits.
func (f *failover) commit(jobID, tenant string, iv keyspace.Interval, tested uint64) {
	if f.promoted {
		f.spans[jobID] = append(f.spans[jobID], iv)
		if f.firstCommitAfter < 0 {
			f.firstCommitAfter = f.eng.Now()
		}
	}
	if f.fcfg.OnCommit != nil {
		f.fcfg.OnCommit(f.promoted, jobID, tenant, iv, tested)
	}
}

// crash kills the master mid-flight: every in-flight lease dies with
// it, and the replication lag window — records appended but not yet
// applied to the replica — is lost, exactly like unflushed frames on a
// severed connection.
func (f *failover) crash() {
	f.masterDown()
	f.svc.Kill()
	f.dropped = f.link.Drop()
	f.crashAt = f.eng.Now()
}

// promote closes the replica and runs ordinary crash recovery over its
// directory — never touching the master's disk — then records the
// remaining set the exactness audit will check the promoted commits
// against, and swaps the promoted store in under the fleet, which
// leaves the master-down state and goes back to work.
func (f *failover) promote() {
	f.replicaSeq = f.rep.Seq()
	if err := f.rep.Close(); err != nil {
		f.err = fmt.Errorf("fleetsim: closing replica: %w", err)
		return
	}
	store, err := jobs.Open(f.fcfg.ReplicaDir, jobs.StoreOptions{NoSync: true, Clock: f.clock})
	if err != nil {
		f.err = fmt.Errorf("fleetsim: promoting replica: %w", err)
		return
	}
	for _, j := range store.List("") {
		cp, err := store.Progress(j.ID)
		if err != nil {
			store.Close()
			f.err = err
			return
		}
		f.remaining[j.ID] = cp.Remaining
	}
	if err := f.start(store); err != nil {
		f.err = err
		return
	}
	f.down, f.promoted = false, true
	f.promotedAt = f.eng.Now()
	f.startAll()
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
		cursor := want.Start
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
			cursor = sp.End
			si++
		}
	}
	if si != len(spans) {
		return fmt.Errorf("fleetsim: job %s: %d committed spans beyond the remaining set", jobID, len(spans)-si)
	}
	return nil
}
