package fleetsim

import (
	"crypto/md5"
	"encoding/hex"
	"sort"
	"sync"
	"testing"
	"time"

	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// simSpec builds a small-alphabet spec: space size Σ|charset|^L for
// L = 1..maxLen, which scales test fleets without touching real
// hashing (the fleet never hashes anyway). maxLen is capped at 20 by
// the keyspace package, so bigger fleets use bigger alphabets.
func simSpec(charset string, maxLen int, steal bool, maxSolutions int) jobs.Spec {
	sum := md5.Sum([]byte("fleetsim-test"))
	return jobs.Spec{
		Algorithm:    "md5",
		Target:       hex.EncodeToString(sum[:]),
		Charset:      charset,
		MinLen:       1,
		MaxLen:       maxLen,
		MaxSolutions: maxSolutions,
		Steal:        steal,
	}
}

func spaceSize(t *testing.T, spec jobs.Spec) uint64 {
	t.Helper()
	sp, err := spec.Space()
	if err != nil {
		t.Fatalf("space: %v", err)
	}
	n, ok := sp.Size64()
	if !ok {
		t.Fatal("test space does not fit uint64")
	}
	return n
}

func TestFleetCompletesAJob(t *testing.T) {
	spec := simSpec("ab", 20, false, 0) // ~2M keys
	res, err := Run(Config{
		Workers:     200,
		Seed:        1,
		TputMin:     50,
		TputMax:     150,
		Dir:         t.TempDir(),
		EventBudget: 2_000_000,
		Submissions: []Submission{{Tenant: "a", Spec: spec, Plant: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsDone != 1 {
		t.Fatalf("JobsDone = %d, want 1", res.JobsDone)
	}
	if want := spaceSize(t, spec); res.Tested != want {
		t.Fatalf("Tested = %d, want the whole space %d", res.Tested, want)
	}
	if res.Makespan <= 0 {
		t.Fatalf("Makespan = %v, want > 0", res.Makespan)
	}
	if res.Steals != 0 {
		t.Fatalf("%d steals with stealing disabled", res.Steals)
	}
}

func TestFleetPlantedKeyStopsQuotaJob(t *testing.T) {
	spec := simSpec("ab", 20, false, 1)
	plant := int64(spaceSize(t, spec) / 3)
	res, err := Run(Config{
		Workers:     100,
		Seed:        2,
		TputMin:     80,
		TputMax:     120,
		Dir:         t.TempDir(),
		EventBudget: 2_000_000,
		Submissions: []Submission{{Tenant: "a", Spec: spec, Plant: plant}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeToFind < 0 {
		t.Fatal("planted key never found")
	}
	if res.JobsDone != 1 {
		t.Fatalf("quota job not done (JobsDone = %d)", res.JobsDone)
	}
	if full := spaceSize(t, spec); res.Tested >= full {
		t.Fatalf("quota stop tested the whole space (%d of %d)", res.Tested, full)
	}
}

// churnedConfig is the shared churn-heavy scenario: crashes (recovered
// by lease timeout), graceful leaves, rejoins, and slowdowns.
func churnedConfig(workers int, charset string, maxLen int, seed int64, steal bool, dir string) Config {
	return Config{
		Workers:         workers,
		Seed:            seed,
		TputMin:         50,
		TputMax:         150,
		LeaseTimeout:    600 * time.Second,
		CheckpointEvery: 64,
		Steal:           steal,
		Churn: ChurnOptions{
			Horizon:   400,
			CrashRate: 0.05,
			LeaveRate: 0.05,
			JoinRate:  0.15,
			SlowRate:  0.20,
		},
		Dir:         dir,
		EventBudget: 20_000_000,
		Submissions: []Submission{{Tenant: "a", Spec: simSpec(charset, maxLen, steal, 0), Plant: -1}},
	}
}

func TestFleetDeterministicTraceUnderChurnAndStealing(t *testing.T) {
	run := func(dir string) *Result {
		res, err := Run(churnedConfig(2000, "abc", 15, 11, true, dir))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	if a.TraceDigest != b.TraceDigest || a.TraceEvents != b.TraceEvents {
		t.Fatalf("trace diverged: %s/%d vs %s/%d", a.TraceDigest, a.TraceEvents, b.TraceDigest, b.TraceEvents)
	}
	if a.StealDigest != b.StealDigest || a.Steals != b.Steals {
		t.Fatalf("steal log diverged: %s/%d vs %s/%d", a.StealDigest, a.Steals, b.StealDigest, b.Steals)
	}
	if a.Makespan != b.Makespan || a.Tested != b.Tested || a.Commits != b.Commits {
		t.Fatalf("trajectory diverged: %+v vs %+v", a, b)
	}
	if a.JobsDone != 1 {
		t.Fatalf("churned job did not complete (JobsDone = %d)", a.JobsDone)
	}
	if a.Steals == 0 {
		t.Fatal("steal-enabled churny run recorded no steals")
	}
	// A different seed must change the trace (the digest is not a constant).
	c, err := Run(churnedConfig(2000, "abc", 15, 12, true, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceDigest == a.TraceDigest {
		t.Fatal("different seeds produced identical trace digests")
	}
}

// TestFleetExactCoverageUnderCrashChurn audits every committed span:
// with crashes, lease-timeout recovery, and split-lease stealing all
// active, the committed intervals must tile the keyspace exactly —
// no gap, no overlap — and sum to the space size.
func TestFleetExactCoverageUnderCrashChurn(t *testing.T) {
	type span struct{ lo, hi uint64 }
	var mu sync.Mutex
	var spans []span

	cfg := churnedConfig(1000, "abc", 14, 21, true, t.TempDir())
	cfg.OnCommit = func(jobID, tenant string, iv keyspace.Interval, tested uint64) {
		lo := iv.Start.Uint64()
		hi := iv.End.Uint64()
		mu.Lock()
		spans = append(spans, span{lo, hi})
		mu.Unlock()
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsDone != 1 {
		t.Fatalf("job did not complete (JobsDone = %d)", res.JobsDone)
	}
	if res.Crashes == 0 || res.Requeues == 0 {
		t.Fatalf("scenario exercised no crash recovery (crashes=%d requeues=%d)", res.Crashes, res.Requeues)
	}
	if res.Steals == 0 {
		t.Fatal("scenario exercised no stealing")
	}

	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	want := spaceSize(t, cfg.Submissions[0].Spec)
	var at, total uint64
	for i, s := range spans {
		if s.lo != at {
			t.Fatalf("span %d starts at %d, want %d (gap or overlap)", i, s.lo, at)
		}
		if s.hi <= s.lo {
			t.Fatalf("span %d is empty or inverted [%d,%d)", i, s.lo, s.hi)
		}
		at = s.hi
		total += s.hi - s.lo
	}
	if at != want || total != want {
		t.Fatalf("committed spans cover [0,%d), sum %d; want exactly [0,%d)", at, total, want)
	}
	if res.Tested != want {
		t.Fatalf("Tested = %d, want %d", res.Tested, want)
	}
}

// TestFleetLateJoinerShortensMakespan is §III's dynamic network: worker
// 0 is down at t=0 and joins at t=20. The job must finish strictly
// later than with worker 0 up from the start and strictly earlier than
// without it, and the committed leases must tile the space exactly.
func TestFleetLateJoinerShortensMakespan(t *testing.T) {
	spec := simSpec("ab", 14, false, 0)
	want := spaceSize(t, spec)
	run := func(schedule []ChurnEvent) (*Result, []keyspace.Interval) {
		var spans []keyspace.Interval
		res, err := Run(Config{
			Workers:      4,
			Seed:         5,
			TputMin:      80,
			TputMax:      120,
			LeaseSeconds: 2,
			Schedule:     schedule,
			Dir:          t.TempDir(),
			EventBudget:  1_000_000,
			Submissions:  []Submission{{Tenant: "a", Spec: spec, Plant: -1}},
			OnCommit: func(jobID, tenant string, iv keyspace.Interval, tested uint64) {
				spans = append(spans, iv)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.JobsDone != 1 || res.Tested != want {
			t.Fatalf("JobsDone = %d, Tested = %d; want 1 job over %d keys", res.JobsDone, res.Tested, want)
		}
		return res, spans
	}
	full, _ := run([]ChurnEvent{})
	without, _ := run([]ChurnEvent{{At: 0, Worker: 0, Kind: ChurnLeave}})
	joined, spans := run([]ChurnEvent{
		{At: 0, Worker: 0, Kind: ChurnLeave},
		{At: 20, Worker: 0, Kind: ChurnJoin},
	})
	if !(full.Makespan < joined.Makespan && joined.Makespan < without.Makespan) {
		t.Fatalf("makespans: up from t=0 %.2fs, joined at t=20 %.2fs, never up %.2fs; want strictly increasing",
			full.Makespan, joined.Makespan, without.Makespan)
	}

	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Cmp(spans[j].Start) < 0 })
	var at uint64
	for i, iv := range spans {
		if lo := iv.Start.Uint64(); lo != at {
			t.Fatalf("span %d starts at %d, want %d (gap or overlap)", i, lo, at)
		}
		at = iv.End.Uint64()
	}
	if at != want {
		t.Fatalf("committed spans end at %d, want %d", at, want)
	}
}

// TestStealingBeatsStaticBalancing pins the adaptive-stealing win: in
// a fleet degraded by slowdowns, splitting stragglers' leases finishes
// the job strictly earlier than the paper's static balance rule alone.
func TestStealingBeatsStaticBalancing(t *testing.T) {
	run := func(steal bool) *Result {
		res, err := Run(Config{
			Workers: 500,
			Seed:    31,
			TputMin: 50,
			TputMax: 150,
			Steal:   steal,
			Churn: ChurnOptions{
				Horizon:  120,
				SlowRate: 0.5,
				SlowMin:  0.05,
				SlowMax:  0.4, // slowdowns only: stragglers, no crashes
			},
			Dir:         t.TempDir(),
			EventBudget: 10_000_000,
			Submissions: []Submission{{Tenant: "a", Spec: simSpec("abc", 14, true, 0), Plant: -1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.JobsDone != 1 {
			t.Fatalf("job incomplete (steal=%v)", steal)
		}
		return res
	}
	static := run(false)
	adaptive := run(true)
	if adaptive.Steals == 0 {
		t.Fatal("adaptive run recorded no steals")
	}
	if adaptive.Makespan >= static.Makespan {
		t.Fatalf("stealing did not beat static balancing: %v >= %v", adaptive.Makespan, static.Makespan)
	}
	t.Logf("makespan static=%.1fs adaptive=%.1fs (%.1f%% faster, %d steals, %d keys moved)",
		static.Makespan, adaptive.Makespan,
		100*(1-adaptive.Makespan/static.Makespan), adaptive.Steals, adaptive.StolenKeys)
}

// TestFleetFairShareAcrossTenants: two equal-weight tenants with
// equal-size jobs converge to equal committed keys (Jain index ≈ 1).
func TestFleetFairShareAcrossTenants(t *testing.T) {
	spec := simSpec("ab", 20, false, 0)
	res, err := Run(Config{
		Workers:     300,
		Seed:        41,
		TputMin:     80,
		TputMax:     120,
		Dir:         t.TempDir(),
		EventBudget: 5_000_000,
		Submissions: []Submission{
			{Tenant: "alice", Spec: spec, Plant: -1},
			{Tenant: "bob", Spec: spec, Plant: -1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsDone != 2 {
		t.Fatalf("JobsDone = %d, want 2", res.JobsDone)
	}
	if res.FairnessJain < 0.99 {
		t.Fatalf("Jain fairness %v across equal tenants, want ≥ 0.99 (keys: %v)", res.FairnessJain, res.TenantKeys)
	}
}

// TestFleet100kWorkers is the scale acceptance run: a 10⁵-worker
// heterogeneous fleet with live churn completes a full job, with
// stealing, in bounded host time, and the same seed reproduces the
// identical event trace and steal log. Skipped in -short and under
// the race detector (memory overhead, not a race).
func TestFleet100kWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-worker acceptance run skipped in -short")
	}
	if raceEnabled {
		t.Skip("10⁵-worker acceptance run skipped under -race")
	}
	cfg := func(dir string) Config {
		c := churnedConfig(100_000, "abc", 18, 99, true, dir)
		c.CheckpointEvery = 20_000
		c.EventBudget = 50_000_000
		return c
	}
	start := time.Now()
	a, err := Run(cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("100k workers: %d commits, %d steals, %d requeues, makespan %.0f virtual s in %v host time",
		a.Commits, a.Steals, a.Requeues, a.Makespan, elapsed)
	if a.JobsDone != 1 {
		t.Fatalf("job incomplete: %+v", a)
	}
	if want := spaceSize(t, cfg("").Submissions[0].Spec); a.Tested != want {
		t.Fatalf("Tested = %d, want %d", a.Tested, want)
	}
	if elapsed > 60*time.Second {
		t.Fatalf("acceptance run took %v host time, budget 60s", elapsed)
	}
	b, err := Run(cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest != b.TraceDigest || a.StealDigest != b.StealDigest {
		t.Fatalf("100k run not deterministic: trace %s vs %s, steals %s vs %s",
			a.TraceDigest, b.TraceDigest, a.StealDigest, b.StealDigest)
	}
}

func TestOverlapCurveShape(t *testing.T) {
	overlaps := []float64{0, 0.25, 0.5, 1}

	// No failures: overlap is pure loss. Makespan grows, nothing misses,
	// and mean TTF stays flat (within Monte-Carlo noise) because the
	// nearest covering agent always wins.
	healthy := OverlapCurve(5, 16, 20_000, 0, overlaps)
	if len(healthy) != 4 {
		t.Fatalf("%d points", len(healthy))
	}
	for i, p := range healthy {
		if p.Makespan != 1+p.Overlap {
			t.Fatalf("point %d: makespan %v, want %v", i, p.Makespan, 1+p.Overlap)
		}
		if p.MissRate != 0 {
			t.Fatalf("point %d: misses without failures (%v)", i, p.MissRate)
		}
		if p.MeanTTF < 0.45 || p.MeanTTF > 0.55 {
			t.Fatalf("point %d: mean TTF %v, want ≈ 0.5 (flat in overlap)", i, p.MeanTTF)
		}
	}

	// With failures, overlap is redundancy: the miss rate must fall
	// monotonically as the overlap fraction grows.
	failing := OverlapCurve(7, 16, 20_000, 0.3, overlaps)
	if failing[0].MissRate == 0 {
		t.Fatal("30% agent failure produced no misses at zero overlap")
	}
	for i := 1; i < len(failing); i++ {
		if failing[i].MissRate >= failing[i-1].MissRate {
			t.Fatalf("miss rate did not fall with overlap: %v -> %v at f=%v",
				failing[i-1].MissRate, failing[i].MissRate, failing[i].Overlap)
		}
	}

	// Same seed, same curve.
	again := OverlapCurve(7, 16, 20_000, 0.3, overlaps)
	for i := range failing {
		if failing[i] != again[i] {
			t.Fatal("overlap curve not deterministic")
		}
	}
}
