package fleetsim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// failoverConfig is the shared scenario: a modest fleet over a few
// multi-million-key jobs with planted solutions, sized so a mid-run
// crash interrupts plenty of in-flight leases.
func failoverConfig(t *testing.T, seed int64) FailoverConfig {
	t.Helper()
	spec := simSpec("ab", 18, false, 0) // ~500k keys per job
	n := int64(spaceSize(t, spec))
	return FailoverConfig{
		Workers: 40,
		Seed:    seed,
		TputMin: 300,
		TputMax: 900,
		// Short leases put commits on the WAL well before the crash
		// (default 30s leases would complete only after CrashAt).
		LeaseSeconds: 5,
		EventBudget:  2_000_000,
		MasterDir:    t.TempDir(),
		ReplicaDir:   t.TempDir(),
		Submissions: []Submission{
			{Tenant: "a", Spec: spec, Plant: n / 3},
			{Tenant: "a", Spec: spec, Plant: n - 1},
			{Tenant: "b", Spec: spec, Plant: -1},
		},
	}
}

func TestFailoverBaselineReplicaTailsAlong(t *testing.T) {
	run := func() *FailoverResult {
		cfg := failoverConfig(t, 7)
		cfg.CrashAt = -1
		res, err := RehearseFailover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.JobsDone != 3 {
		t.Fatalf("JobsDone = %d, want 3", res.JobsDone)
	}
	if res.FoundJobs != 2 {
		t.Fatalf("FoundJobs = %d, want 2 (two plants)", res.FoundJobs)
	}
	if res.CrashAt != -1 || res.PromotedAt != -1 || res.DroppedRecords != 0 {
		t.Fatalf("baseline reported a crash: %+v", res)
	}
	if res.ReplicaSeq == 0 {
		t.Fatal("replica never advanced on the baseline")
	}
	// Same config, fresh directories: byte-identical trajectory.
	again := run()
	if res.Makespan != again.Makespan || res.Tested != again.Tested ||
		res.Commits != again.Commits || res.ReplicaSeq != again.ReplicaSeq {
		t.Fatalf("baseline not deterministic:\n  %+v\n  %+v", res, again)
	}
}

func TestFailoverPromotionExactlyOnce(t *testing.T) {
	cfg := failoverConfig(t, 11)
	cfg.ReplLag = 6  // a crash loses up to 6 records
	cfg.CrashAt = 30 // mid-run: the fleet needs ~60 virtual seconds in total
	cfg.DetectAfter = 10
	res, err := RehearseFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashAt != 30 {
		t.Fatalf("CrashAt = %v, want 30", res.CrashAt)
	}
	if res.PromotedAt != 40 {
		t.Fatalf("PromotedAt = %v, want 40", res.PromotedAt)
	}
	if res.Makespan <= res.PromotedAt {
		t.Fatalf("Makespan = %v: the run ended before promotion — the crash was not mid-run", res.Makespan)
	}
	if res.DroppedRecords == 0 {
		t.Fatal("the crash dropped nothing — the lag window was empty, the scenario is toothless")
	}
	if res.FirstCommitAfter < res.PromotedAt {
		t.Fatalf("FirstCommitAfter = %v before promotion at %v", res.FirstCommitAfter, res.PromotedAt)
	}
	if res.JobsDone != 3 {
		t.Fatalf("JobsDone = %d, want 3 — the promoted service did not finish the fleet's work", res.JobsDone)
	}
	if res.FoundJobs != 2 {
		t.Fatalf("FoundJobs = %d, want 2", res.FoundJobs)
	}
	if res.ReplicaSeq == 0 {
		t.Fatal("promotion from an empty replica")
	}
	// Work performed must be at least one full pass: re-tested keys
	// (whose checkpoints died in the lag window) only add.
	spec := simSpec("ab", 18, false, 0)
	if min := 3 * spaceSize(t, spec); res.Tested < min {
		t.Fatalf("Tested = %d, want >= %d", res.Tested, min)
	}

	// The promoted store is the durable record: every job done, every
	// keyspace covered exactly once (Tested == Space per job).
	store, err := jobs.Open(cfg.ReplicaDir, jobs.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	table := store.List("")
	if len(table) != 3 {
		t.Fatalf("promoted store has %d jobs, want 3", len(table))
	}
	for _, j := range table {
		if j.State != jobs.StateDone {
			t.Fatalf("job %s ended %s, want done", j.ID, j.State)
		}
		if j.Space != "" && j.Tested == 0 {
			t.Fatalf("job %s has no coverage", j.ID)
		}
		want := spaceSize(t, j.Spec)
		if j.Tested != want {
			t.Fatalf("job %s: tested %d of %d keys — coverage is not exactly-once", j.ID, j.Tested, want)
		}
	}
}

// TestFailoverCrashRehearsalDeterministic pins RehearseFailover's
// "deterministic for a fixed config" on the crash path: the same seed
// must give the same trajectory and the same master WAL, byte for byte.
// Each checkpoint record lists the job's live leases, so this holds only
// while the lease table lists them in lease-ID order rather than map
// order — which leases a crash loses depends on it.
func TestFailoverCrashRehearsalDeterministic(t *testing.T) {
	run := func() (FailoverResult, []byte) {
		cfg := failoverConfig(t, 11)
		cfg.ReplLag = 6
		cfg.CrashAt = 30
		cfg.DetectAfter = 10
		res, err := RehearseFailover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(filepath.Join(cfg.MasterDir, "jobs.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return *res, wal
	}
	res, wal := run()
	again, walAgain := run()
	if res != again {
		t.Fatalf("crash rehearsal not deterministic:\n  %+v\n  %+v", res, again)
	}
	if !bytes.Equal(wal, walAgain) {
		t.Fatalf("master jobs.wal differs between identical runs (%d vs %d bytes)", len(wal), len(walAgain))
	}
}

func TestFailoverAuditObservesBothPhases(t *testing.T) {
	cfg := failoverConfig(t, 13)
	cfg.ReplLag = 4
	cfg.CrashAt = 30
	cfg.DetectAfter = 5
	var master, promoted int
	cfg.OnCommit = func(p bool, _, _ string, _ keyspace.Interval, _ uint64) {
		if p {
			promoted++
		} else {
			master++
		}
	}
	if _, err := RehearseFailover(cfg); err != nil {
		t.Fatal(err)
	}
	if master == 0 || promoted == 0 {
		t.Fatalf("commit hook saw master=%d promoted=%d, want both > 0", master, promoted)
	}
}

func TestFailoverRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	bad := []FailoverConfig{
		{Workers: 0},
		{Workers: 1, TputMin: 0},
		{Workers: 1, TputMin: 1, TputMax: 2},
		{Workers: 1, TputMin: 1, TputMax: 2, Submissions: []Submission{{}}, MasterDir: dir, ReplicaDir: dir},
		{Workers: 1, TputMin: 1, TputMax: 2, Submissions: []Submission{{}}, MasterDir: dir, ReplicaDir: t.TempDir(), CrashAt: 1, DetectAfter: -1},
		{Workers: 1, TputMin: 1, TputMax: 2, Submissions: []Submission{{}}, ReplicaDir: dir},
	}
	for i, cfg := range bad {
		if _, err := RehearseFailover(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestFailoverErrorReleasesStores pins the error path's teardown: a
// rehearsal that fails part-way (here: a runaway event budget) must
// stop its service and close both stores before returning.
func TestFailoverErrorReleasesStores(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	cfg := failoverConfig(t, 7)
	cfg.CrashAt = -1
	cfg.EventBudget = 200
	before := fds()
	if _, err := RehearseFailover(cfg); err == nil {
		t.Fatal("a 200-event budget did not abort the rehearsal")
	}
	if after := fds(); after > before {
		t.Fatalf("%d open descriptors after the failed rehearsal, %d before: a store was left open", after, before)
	}
}
