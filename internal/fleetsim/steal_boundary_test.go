package fleetsim

import (
	"sort"
	"sync"
	"testing"

	"keysearch/internal/keyspace"
)

// TestFleetExactCoverageWithQuantizedProgress is the span audit for the
// progress-cadence model: with ProgressEvery set, a thief plans its
// split from the victim's last quantized mark, and whenever that mark is
// stale the handshake settles at the victim's true progress — a cut
// landing exactly on the boundary the victim has just finished. A coarse
// cadence makes that boundary case the common one, so this run audits
// it in bulk: every committed span must still tile the keyspace exactly
// once, with no gap, overlap, or double count, and the whole trajectory
// must stay deterministic.
func TestFleetExactCoverageWithQuantizedProgress(t *testing.T) {
	type span struct{ lo, hi uint64 }
	var mu sync.Mutex
	var spans []span

	run := func(dir string, record bool) *Result {
		cfg := churnedConfig(1000, "abc", 14, 33, true, dir)
		// Coarse marks: a lease lasts tens of virtual seconds, so a 20s
		// cadence leaves most thieves planning from stale knowledge and
		// forces the cut-at-true-progress boundary case constantly.
		cfg.ProgressEvery = 20
		if record {
			cfg.OnCommit = func(jobID, tenant string, iv keyspace.Interval, tested uint64) {
				lo := iv.Start.Uint64()
				hi := iv.End.Uint64()
				mu.Lock()
				spans = append(spans, span{lo, hi})
				mu.Unlock()
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run(t.TempDir(), true)
	if res.JobsDone != 1 {
		t.Fatalf("job did not complete (JobsDone = %d)", res.JobsDone)
	}
	if res.Steals == 0 {
		t.Fatal("quantized-progress run recorded no steals")
	}

	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	want := spaceSize(t, simSpec("abc", 14, true, 0))
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

	// The cadence model must not cost determinism: same config, same
	// trace, same steal log.
	res2 := run(t.TempDir(), false)
	if res.TraceDigest != res2.TraceDigest || res.StealDigest != res2.StealDigest {
		t.Fatalf("quantized-progress trace diverged: %s/%s vs %s/%s",
			res.TraceDigest, res.StealDigest, res2.TraceDigest, res2.StealDigest)
	}
}

// TestFleetProgressCadenceChangesPlanNotCoverage: turning the cadence
// knob reshapes the steal schedule (different splits, different trace)
// but never the invariant — the space is covered exactly once either
// way. A cadence of zero must reproduce the legacy continuous-knowledge
// digests bit for bit, pinning that the model is opt-in.
func TestFleetProgressCadenceChangesPlanNotCoverage(t *testing.T) {
	base := func(dir string, cadence float64) *Result {
		cfg := churnedConfig(800, "abc", 13, 5, true, dir)
		cfg.ProgressEvery = cadence
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.JobsDone != 1 {
			t.Fatalf("cadence %g: job did not complete", cadence)
		}
		want := spaceSize(t, simSpec("abc", 13, true, 0))
		if res.Tested != want {
			t.Fatalf("cadence %g: Tested = %d, want %d", cadence, res.Tested, want)
		}
		return res
	}

	continuous := base(t.TempDir(), 0)
	continuous2 := base(t.TempDir(), 0)
	if continuous.TraceDigest != continuous2.TraceDigest {
		t.Fatal("continuous runs are not deterministic")
	}
	quantized := base(t.TempDir(), 15)
	if quantized.TraceDigest == continuous.TraceDigest && quantized.Steals == continuous.Steals &&
		quantized.StealDigest == continuous.StealDigest {
		t.Fatal("a 15s progress cadence left the steal schedule untouched — the knob is not wired")
	}
}
