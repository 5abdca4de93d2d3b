package jobs

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
	"keysearch/internal/telemetry"
)

// countExec is a fakeExec that counts the keys its completed searches
// cover, so a test can tell searched keys from committed ones.
type countExec struct {
	*fakeExec
	keys *atomic.Uint64
}

func (e *countExec) Search(ctx context.Context, spec Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	rep, err := e.fakeExec.Search(ctx, spec, iv)
	if err == nil {
		e.keys.Add(rep.Tested)
	}
	return rep, err
}

func countingFleet(n int, delay time.Duration, keys *atomic.Uint64) []Executor {
	execs := fleet(n, delay)
	for i, ex := range execs {
		execs[i] = &countExec{fakeExec: ex.(*fakeExec), keys: keys}
	}
	return execs
}

// killLog closes the store's WAL under its lock: every later append
// fails, the FAILED record a failed checkpoint leads to included.
func killLog(s *Store) {
	s.mu.Lock()
	s.log.Close()
	s.mu.Unlock()
}

// TestDeadWALStopsLeasing: once a checkpoint cannot be written and the
// FAILED record that should follow cannot be written either, the log is
// dead. The service must issue no lease from that store again — neither
// to a manual driver nor to its executor loops, which end — rather than
// burn the keyspace on commits that can never become durable.
func TestDeadWALStopsLeasing(t *testing.T) {
	const space = 26 + 26*26 + 26*26*26 + 26*26*26*26 // 475254
	sp := specFor(t, "zzzz", "abcdefghijklmnopqrstuvwxyz", 1, 4)

	t.Run("manual", func(t *testing.T) {
		store, err := Open(t.TempDir(), StoreOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(store, fleet(2, 0), Options{MaxLease: 64})
		if err := svc.StartManual(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit("t", 0, sp); err != nil {
			t.Fatal(err)
		}
		l, ok := svc.TryLease(0)
		if !ok {
			t.Fatal("no first lease")
		}
		killLog(store)
		if svc.Commit(l, &dispatch.Report{Tested: l.N}) {
			t.Fatal("a commit over a dead WAL was accepted")
		}
		if l, ok := svc.TryLease(1); ok {
			t.Fatalf("lease %v issued after the WAL died", l.Interval)
		}
	})

	t.Run("loops", func(t *testing.T) {
		store, err := Open(t.TempDir(), StoreOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		var commits atomic.Int64
		var searched atomic.Uint64
		svc := NewService(store, countingFleet(2, 0, &searched), Options{
			MaxLease: 64,
			OnCommit: func(string, string, keyspace.Interval, uint64) {
				if commits.Add(1) == 1 {
					killLog(store)
				}
			},
		})
		if err := svc.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer svc.Kill()
		j, err := svc.Submit("t", 0, sp)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-svc.ExecutorsDone():
		case <-time.After(10 * time.Second):
			got, _ := svc.Get(j.ID)
			t.Fatalf("executor loops still leasing over a dead WAL: %d keys searched, job %v with %d tested",
				searched.Load(), got.State, got.Tested)
		}
		// The leases issued while the flush that finds the log dead is on
		// its way are searched; the rest of the space is never leased.
		if n := searched.Load(); n >= space/2 {
			t.Fatalf("%d of %d keys searched over a dead WAL", n, space)
		}
		if l, ok := svc.TryLease(0); ok {
			t.Fatalf("lease %v issued after the WAL died", l.Interval)
		}
	})

	// The log dies right after the final checkpoint, so the DONE record
	// that follows it fails: that too leaves the log dead. Nothing more is
	// leased, the loops end, and recovery marks the job DONE from its
	// empty checkpoint.
	t.Run("done", func(t *testing.T) {
		const small = 26 + 26*26 // "zz" at lengths 1..2
		for _, manual := range []bool{false, true} {
			dir := t.TempDir()
			store, err := Open(dir, StoreOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			var tested atomic.Uint64
			svc := NewService(store, fleet(2, 0), Options{
				MaxLease: 64,
				OnCommit: func(_, _ string, _ keyspace.Interval, n uint64) {
					if tested.Add(n) == small {
						killLog(store)
					}
				},
			})
			start := svc.Start
			if manual {
				start = svc.StartManual
			}
			if err := start(context.Background()); err != nil {
				t.Fatal(err)
			}
			j, err := svc.Submit("t", 0, specFor(t, "zz", "abcdefghijklmnopqrstuvwxyz", 1, 2))
			if err != nil {
				t.Fatal(err)
			}
			if manual {
				// A second running job still has work to lease.
				if _, err := svc.Submit("t", 0, sp); err != nil {
					t.Fatal(err)
				}
				for l, ok := svc.TryLease(0); ok && tested.Load() < small; l, ok = svc.TryLease(0) {
					svc.Commit(l, &dispatch.Report{Tested: l.N})
				}
				if l, ok := svc.TryLease(1); ok {
					t.Fatalf("lease %v issued after the DONE record failed", l.Interval)
				}
			}
			select {
			case <-svc.ExecutorsDone():
			case <-time.After(5 * time.Second):
				t.Fatal("executor loops still waiting after the DONE record failed")
			}
			if got, _ := svc.Get(j.ID); got.State != StateRunning || got.Tested != small {
				t.Fatalf("job %v with %d tested, want running with %d", got.State, got.Tested, small)
			}
			svc.Kill()

			store2, err := Open(dir, StoreOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			svc2 := NewService(store2, fleet(1, 0), Options{})
			if err := svc2.StartManual(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got, _ := svc2.Get(j.ID); got.State != StateDone || got.Tested != small {
				t.Fatalf("recovered job %v with %d tested, want done with %d", got.State, got.Tested, small)
			}
			svc2.Shutdown(context.Background())
		}
	})
}

// TestLeaseTakesNoStoreLock: issuing a lease never waits on Store.mu,
// which an append holds across its fsync. With the store lock held and
// nothing pending, TryLease on a RUNNING job still returns a lease.
func TestLeaseTakesNoStoreLock(t *testing.T) {
	store, err := Open(t.TempDir(), StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(store, fleet(1, 0), Options{MaxLease: 64})
	if err := svc.StartManual(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	if _, err := svc.Submit("t", 0, specFor(t, "ab", "abc", 1, 6)); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.TryLease(0); !ok { // admits the job
		t.Fatal("no first lease")
	}

	got := make(chan bool, 1)
	store.mu.Lock()
	go func() {
		_, ok := svc.TryLease(0)
		got <- ok
	}()
	select {
	case ok := <-got:
		store.mu.Unlock()
		if !ok {
			t.Fatal("TryLease on a RUNNING job returned no lease")
		}
	case <-time.After(5 * time.Second):
		store.mu.Unlock()
		<-got
		t.Fatal("TryLease waited on the store lock")
	}
}

// TestLeaseAllocs pins the allocations of one manual lease, TryLease
// then Commit on an unsynced store: the lease and flush path that
// fleet-fine pays per lease. 46 is what the path took before the
// lifecycle became its own type; a new allocation per lease fails here.
func TestLeaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	store, err := Open(t.TempDir(), StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(store, fleet(1, 0), Options{MinLease: 64, MaxLease: 64})
	if err := svc.StartManual(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	if _, err := svc.Submit("t", 0, specFor(t, "zzzzzz", "abcdefghijklmnopqrstuvwxyz", 1, 6)); err != nil {
		t.Fatal(err)
	}
	lease := func() {
		l, ok := svc.TryLease(0)
		if !ok || !svc.Commit(l, &dispatch.Report{Tested: l.N}) {
			t.Fatal("no lease committed")
		}
	}
	lease() // admission
	if n := testing.AllocsPerRun(200, lease); n > 46 {
		t.Fatalf("%.0f allocations per lease, want at most 46", n)
	}
}

// TestGroupCommitCrashKeepsAcknowledgedLeases crashes a fsynced service
// whose executor loops queue their next lease and commit in groups, after
// K acknowledged commits. Every lease OnCommit reported must lie outside
// the recovered remaining set (acknowledged means durable), the job must
// then finish with its acknowledged spans tiling the space exactly, and
// the keys searched twice must be exactly the searched leases that were
// never acknowledged.
func TestGroupCommitCrashKeepsAcknowledgedLeases(t *testing.T) {
	const k = 40
	const space = 26 + 26*26 + 26*26*26 + 26*26*26*26
	dir := t.TempDir()
	audit := newAudit()
	opts := Options{MaxLease: 2048, OnCommit: audit.hook}
	sp := specFor(t, "zzzz", "abcdefghijklmnopqrstuvwxyz", 1, 4)

	var before atomic.Uint64
	store, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(store, countingFleet(2, 300*time.Microsecond, &before), opts)
	if err := svc.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit("t", 0, sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		select {
		case <-audit.commits:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d commits before stall", i)
		}
	}
	svc.Kill()
	acked := audit.entries()
	var ackedKeys uint64
	for _, e := range acked {
		ackedKeys += e.end - e.start
	}

	store2, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := store2.Progress(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range acked {
		for _, iv := range cp.Remaining {
			if lo, hi := iv.Start.Uint64(), iv.End.Uint64(); e.start < hi && lo < e.end {
				t.Fatalf("acknowledged lease [%d,%d) is in the recovered remaining interval [%d,%d)", e.start, e.end, lo, hi)
			}
		}
	}
	if cp.Tested < ackedKeys {
		t.Fatalf("recovered tested %d < %d acknowledged keys", cp.Tested, ackedKeys)
	}

	var after atomic.Uint64
	svc2 := NewService(store2, countingFleet(2, 0, &after), opts)
	if err := svc2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown(context.Background())
	waitFor(t, svc2, 30*time.Second, "the job to finish", func() bool {
		got, err := svc2.Get(j.ID)
		return err == nil && got.Done()
	})
	if got, _ := svc2.Get(j.ID); got.State != StateDone || got.Tested != space {
		t.Fatalf("job ended %v with %d tested, want done with %d", got.State, got.Tested, space)
	}
	verifyExactCoverage(t, j.ID, audit.entries(), space)
	retested := before.Load() + after.Load() - space
	if unacked := before.Load() - ackedKeys; retested != unacked {
		t.Fatalf("%d keys searched twice, want the %d searched before the crash and never acknowledged", retested, unacked)
	}
}

// BenchmarkCommitPipeline drives the executor loops over two fake
// executors that take 60 µs per 2¹⁴-key lease, with a fsynced WAL: the
// fleet-fine shape, where a lease's search is shorter than one fsync. It
// reports committed leases per second and WAL fsyncs per lease (the
// submit and admission records included); group commit holds the
// latter under 1.
func BenchmarkCommitPipeline(b *testing.B) {
	reg := telemetry.NewRegistry()
	store, err := Open(b.TempDir(), StoreOptions{Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	var commits atomic.Int64
	done := make(chan struct{})
	svc := NewService(store, fleet(2, 60*time.Microsecond), Options{
		MinLease: 1 << 14,
		MaxLease: 1 << 14,
		OnCommit: func(string, string, keyspace.Interval, uint64) {
			if commits.Add(1) == int64(b.N) {
				close(done)
			}
		},
	})
	if err := svc.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer svc.Kill()
	sum := md5.Sum([]byte("not in the space"))
	b.ResetTimer()
	t0 := time.Now()
	// 26 symbols up to length 7: 8.0·10⁹ keys, far more leases than any
	// run takes.
	if _, err := svc.Submit("bench", 0, Spec{Algorithm: "md5", Target: hex.EncodeToString(sum[:]),
		Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 1, MaxLen: 7}); err != nil {
		b.Fatal(err)
	}
	<-done
	elapsed := time.Since(t0)
	b.StopTimer()
	fsyncs := reg.Snapshot().Histograms[telemetry.MetricJobsWALFsync].Count
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "leases/s")
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/lease")
}

// blockedExec is a fakeExec whose first search parks until release is
// closed, reporting the lease it holds on held.
type blockedExec struct {
	*fakeExec
	once    sync.Once
	held    chan keyspace.Interval
	release chan struct{}
}

func (e *blockedExec) Search(ctx context.Context, spec Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	first := false
	e.once.Do(func() { first = true })
	if first {
		e.held <- iv
		select {
		case <-e.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return e.fakeExec.Search(ctx, spec, iv)
}

// TestIdleExecutorReclaimsQueuedLease: an executor whose search hangs
// also holds its next lease queued behind it. Once the other executor
// runs out of work it takes that queued lease back, so every key but the
// hung lease's is committed while the hang lasts.
func TestIdleExecutorReclaimsQueuedLease(t *testing.T) {
	const space = 3 + 9 + 27 + 81 + 243 // "abc", lengths 1..5: 23 leases of 16
	execs := fleet(2, time.Millisecond)
	slow := &blockedExec{fakeExec: execs[0].(*fakeExec), held: make(chan keyspace.Interval, 1), release: make(chan struct{})}
	execs[0] = slow
	audit := newAudit()
	svc := startService(t, t.TempDir(), execs, Options{MaxLease: 16, OnCommit: audit.hook})
	defer svc.Shutdown(context.Background())
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(slow.release) }) }
	defer release() // before Shutdown, which waits for the hung search
	j, err := svc.Submit("t", 0, specFor(t, "ccccc", "abc", 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	var hung keyspace.Interval
	select {
	case hung = <-slow.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the slow executor never searched")
	}
	n, _ := hung.Len64()
	committed := func() uint64 {
		var sum uint64
		for _, e := range audit.entries() {
			sum += e.end - e.start
		}
		return sum
	}
	waitFor(t, svc, 10*time.Second, "every lease but the hung one to commit", func() bool {
		return committed() == space-n
	})
	release()
	waitFor(t, svc, 10*time.Second, "the job to finish", func() bool {
		got, err := svc.Get(j.ID)
		return err == nil && got.Done()
	})
	verifyExactCoverage(t, j.ID, audit.entries(), space)
}

// TestShortReportRequeued: a report that tested fewer keys than its lease
// holds is refused, and the lease requeued as an incident, so its
// untested tail is searched later rather than dropped from the table: the
// 702-key job ends DONE with every key tested, the refused lease's keys
// counted once.
func TestShortReportRequeued(t *testing.T) {
	store, err := Open(t.TempDir(), StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	svc := NewService(store, fleet(2, 0), Options{MaxLease: 64, Telemetry: reg})
	if err := svc.StartManual(context.Background()); err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit("t", 0, specFor(t, "zz", "abcdefghijklmnopqrstuvwxyz", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	l, ok := svc.TryLease(0)
	if !ok {
		t.Fatal("no first lease")
	}
	if svc.Commit(l, &dispatch.Report{Tested: l.N / 8}) {
		t.Fatalf("a report of %d keys for a lease of %d was accepted", l.N/8, l.N)
	}
	for {
		l, ok := svc.TryLease(0)
		if !ok {
			break
		}
		if !svc.Commit(l, &dispatch.Report{Tested: l.N}) {
			t.Fatalf("full report for lease %v refused", l.Interval)
		}
	}
	got, err := svc.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Tested != 702 || got.Remaining != "0" {
		t.Fatalf("job %s with tested %d and remaining %s, want DONE with tested 702 and remaining 0", got.State, got.Tested, got.Remaining)
	}
	if n := reg.Snapshot().Counters[telemetry.MetricJobsRequeues]; n != 1 {
		t.Fatalf("%d requeues counted, want the one short report", n)
	}
}
