package jobs

import (
	"context"
	"testing"
	"time"
)

// TestServiceGracefulShutdownLosesNoIntervals: SIGTERM-style shutdown
// (stop admitting, drain in-flight leases, checkpoint, flush the WAL)
// followed by a restart completes every job with exact coverage — no
// lost and no double-tested intervals across the shutdown.
func TestServiceGracefulShutdownLosesNoIntervals(t *testing.T) {
	dir := t.TempDir()
	audit := newAudit()
	opts := Options{Sched: SchedOptions{MaxRunning: 4}, OnCommit: audit.hook}
	const spaceSize = 488280

	svc := startService(t, dir, fleet(3, 200*time.Microsecond), opts)
	var ids []string
	for i, tenant := range []string{"alice", "bob"} {
		j, err := svc.Submit(tenant, 0, specFor(t, string(rune('a'+i))+"bcda", "abcde", 1, 8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for i := 0; i < 30; i++ {
		select {
		case <-audit.commits:
		case <-time.After(10 * time.Second):
			t.Fatal("no progress before shutdown")
		}
	}
	mid := len(audit.entries())
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Drained means drained: nothing commits after Shutdown returns.
	if late := len(audit.entries()); late != mid {
		mid = late // in-flight leases may land between the len() and Shutdown
	}
	time.Sleep(10 * time.Millisecond)
	if late := len(audit.entries()); late != mid {
		t.Fatalf("commits after shutdown returned: %d -> %d", mid, late)
	}
	for _, id := range ids {
		j, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Done() {
			t.Fatalf("job %s finished before shutdown; restart proves nothing", id)
		}
	}

	svc2 := startService(t, dir, fleet(3, 0), opts)
	defer svc2.Shutdown(context.Background())
	waitFor(t, svc2, 60*time.Second, "jobs done after restart", func() bool {
		for _, id := range ids {
			if j, err := svc2.Get(id); err != nil || j.State != StateDone {
				return false
			}
		}
		return true
	})
	for _, id := range ids {
		verifyExactCoverage(t, id, audit.entries(), spaceSize)
		j, _ := svc2.Get(id)
		if j.Tested != spaceSize || j.Remaining != "0" {
			t.Fatalf("job %s: tested=%d remaining=%s after restart", id, j.Tested, j.Remaining)
		}
	}
}

// TestServiceShutdownDeadline: a shutdown whose drain deadline expires
// cancels the in-flight leases hard and still closes cleanly; the
// interrupted leases stay in the durable remaining set.
func TestServiceShutdownDeadline(t *testing.T) {
	dir := t.TempDir()
	// Slow executor: each lease takes ~1s, far past the drain deadline.
	svc := startService(t, dir, fleet(1, time.Second), Options{})
	j, err := svc.Submit("t", 0, specFor(t, "ba", "ab", 1, 16)) // 131070 keys
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, svc, 5*time.Second, "a lease in flight", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		a := svc.life.active[j.ID]
		return a != nil && a.leases.Len() > 0
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown blocked %v despite expired drain deadline", elapsed)
	}
	// The interrupted lease was never committed, so the stored
	// remaining set still includes it: tested + remaining = space.
	s2, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	g, err := s2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	covered := g.remainingBig().Uint64() + g.Tested
	if covered != 131070 {
		t.Fatalf("tested %d + remaining %s != space 131070", g.Tested, g.Remaining)
	}
}
