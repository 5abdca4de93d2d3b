package jobs

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
	"keysearch/internal/sim"
	"keysearch/internal/telemetry"
)

// liveScript choreographs one steal scenario between the test and the
// fake live executors: the lease starting at identifier 0 is the
// straggler (it reports a progress mark, then parks until released);
// every other lease completes as soon as othersGate opens. The shrink
// handshake parks between shrinkStarted and shrinkRelease so the test
// can interleave events — a lease expiry, say — exactly mid-handshake.
type liveScript struct {
	victimProgress uint64
	victimStarted  chan struct{}
	victimRelease  chan struct{}
	othersGate     chan struct{}
	othersParked   chan struct{} // one token per non-victim search that reached the gate
	shrinkStarted  chan struct{}
	shrinkRelease  chan struct{}
	// shrinkReply answers the (first) shrink handshake; later handshakes
	// are refused without parking, as a finished worker would.
	shrinkReply func(keep uint64) (cut uint64, ok bool)

	startedOnce, shrinkOnce sync.Once
	shrinks                 atomic.Int64
	shrunkLease             atomic.Uint64 // leaseID the handshake addressed
	victimCut               atomic.Uint64 // boundary the victim search honors (0 = full lease)
}

func newLiveScript(progress uint64, reply func(keep uint64) (uint64, bool)) *liveScript {
	return &liveScript{
		victimProgress: progress,
		victimStarted:  make(chan struct{}),
		victimRelease:  make(chan struct{}),
		othersGate:     make(chan struct{}),
		othersParked:   make(chan struct{}, 64),
		shrinkStarted:  make(chan struct{}),
		shrinkRelease:  make(chan struct{}),
		shrinkReply:    reply,
	}
}

// liveExec is a fakeExec that implements StealExecutor under a
// liveScript's direction.
type liveExec struct {
	*fakeExec
	sc *liveScript
}

func (e *liveExec) SearchLease(ctx context.Context, l Lease, _ time.Duration, onProgress func(done uint64)) (*dispatch.Report, error) {
	if l.Interval.Start == (keyspace.ID{}) {
		onProgress(e.sc.victimProgress)
		e.sc.startedOnce.Do(func() { close(e.sc.victimStarted) })
		select {
		case <-e.sc.victimRelease:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		iv := l.Interval
		if cut := e.sc.victimCut.Load(); cut > 0 {
			iv, _ = iv.Take(cut)
		}
		return e.fakeExec.Search(ctx, l.Spec, iv)
	}
	select {
	case e.sc.othersParked <- struct{}{}:
	default:
	}
	select {
	case <-e.sc.othersGate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return e.fakeExec.Search(ctx, l.Spec, l.Interval)
}

func (e *liveExec) ShrinkLease(ctx context.Context, leaseID, keep uint64) (uint64, bool) {
	if e.sc.shrinks.Add(1) > 1 {
		return 0, false // one scripted handshake per scenario
	}
	e.sc.shrunkLease.Store(leaseID)
	e.sc.shrinkOnce.Do(func() { close(e.sc.shrinkStarted) })
	select {
	case <-e.sc.shrinkRelease:
	case <-ctx.Done():
		return 0, false
	}
	cut, ok := e.sc.shrinkReply(keep)
	if ok {
		e.sc.victimCut.Store(cut)
	}
	return cut, ok
}

// liveFleet builds n scripted live executors sharing one script.
func liveFleet(n int, sc *liveScript) []Executor {
	base := fleet(n, 0)
	execs := make([]Executor, n)
	for i := range execs {
		execs[i] = &liveExec{fakeExec: base[i].(*fakeExec), sc: sc}
	}
	return execs
}

// stealSpace is the keyspace the scenarios run over: "ab" lengths 1..11,
// 2+4+...+2048 = 4094 keys. With MaxLease 1024 the straggler's lease is
// [0,1024) and the rest of the space drains through the other executor.
const stealSpace = 4094

func stealServiceOptions(reg *telemetry.Registry, audit *commitAudit) Options {
	return Options{
		MaxLease:  1024,
		Telemetry: reg,
		OnCommit:  audit.hook,
		Steal: StealOptions{
			Enabled: true,
			// The victim's lease is 1024 keys with 600 tested: remainder
			// 424 >= 2x128 qualifies it exactly once — after one split the
			// kept half's remainder (212) is below the bar.
			MinSteal:      128,
			ProgressEvery: time.Millisecond,
		},
	}
}

// runStealScenario drives the shared choreography: submit a steal-enabled
// job, park the straggler with a progress mark, drain the rest of the
// space, let the idle executor open a shrink handshake, and (after
// midHandshake, if any) settle it. It returns once the job is DONE.
func runStealScenario(t *testing.T, svc *Service, sc *liveScript, midHandshake func()) Job {
	t.Helper()
	sp := specFor(t, "abba", "ab", 1, 11)
	sp.Steal = true
	job, err := svc.Submit("tenant", 0, sp)
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-sc.victimStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("straggler search never started")
	}
	close(sc.othersGate)

	select {
	case <-sc.shrinkStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("no shrink handshake within 10s")
	}
	if midHandshake != nil {
		midHandshake()
	}
	close(sc.shrinkRelease)

	// The straggler finishes its (possibly shrunk) lease only after the
	// handshake settled, so its report reflects the acked boundary.
	waitFor(t, svc, 10*time.Second, "stolen tail to settle", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		a := svc.life.active[job.ID]
		if a == nil {
			return true
		}
		for _, le := range a.leases.Live() {
			if le.State.phase.pinned() {
				return false
			}
		}
		return true
	})
	close(sc.victimRelease)

	waitFor(t, svc, 10*time.Second, "job completion", func() bool {
		j, err := svc.Get(job.ID)
		return err == nil && j.Done()
	})
	j, err := svc.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestLiveStealSplitsStragglerLease: an idle executor with no leasable
// work opens a shrink handshake against the straggler, takes the tail as
// its own lease, and the committed spans still tile the space exactly.
func TestLiveStealSplitsStragglerLease(t *testing.T) {
	reg := telemetry.NewRegistry()
	audit := newAudit()
	sc := newLiveScript(600, func(keep uint64) (uint64, bool) { return keep, true })
	svc := startService(t, t.TempDir(), liveFleet(2, sc), stealServiceOptions(reg, audit))
	defer svc.Kill()

	j := runStealScenario(t, svc, sc, nil)
	if j.State != StateDone || j.Tested != stealSpace {
		t.Fatalf("job ended %v with %d keys tested, want done/%d", j.State, j.Tested, stealSpace)
	}
	if len(j.Found) != 1 || j.Found[0] != "abba" {
		t.Fatalf("found %q, want [abba]", j.Found)
	}
	verifyExactCoverage(t, j.ID, audit.entries(), stealSpace)

	s := reg.Snapshot()
	if got := s.Counters[telemetry.MetricJobsSteals]; got != 1 {
		t.Fatalf("steals = %d, want 1", got)
	}
	// keep = 600 + ceil(424/2) = 812, so the thief took [812, 1024).
	if got := s.Counters[telemetry.MetricJobsStolenKeys]; got != 1024-812 {
		t.Fatalf("stolen keys = %d, want %d", got, 1024-812)
	}
	if got := s.Counters[telemetry.MetricJobsRequeues]; got != 0 {
		t.Fatalf("requeues = %d, want 0", got)
	}
}

// TestLiveStealRefusedMergesBack: a refused handshake must leave the
// straggler exactly as it was — its lease merged back whole, committed
// once — and must not be retried against the same lease.
func TestLiveStealRefusedMergesBack(t *testing.T) {
	reg := telemetry.NewRegistry()
	audit := newAudit()
	sc := newLiveScript(600, func(uint64) (uint64, bool) { return 0, false })
	svc := startService(t, t.TempDir(), liveFleet(2, sc), stealServiceOptions(reg, audit))
	defer svc.Kill()

	j := runStealScenario(t, svc, sc, nil)
	if j.State != StateDone || j.Tested != stealSpace {
		t.Fatalf("job ended %v with %d keys tested, want done/%d", j.State, j.Tested, stealSpace)
	}
	verifyExactCoverage(t, j.ID, audit.entries(), stealSpace)

	s := reg.Snapshot()
	if got := s.Counters[telemetry.MetricJobsSteals]; got != 0 {
		t.Fatalf("steals = %d after a refused handshake, want 0", got)
	}
	if got := s.Counters[telemetry.MetricJobsStolenKeys]; got != 0 {
		t.Fatalf("stolen keys = %d, want 0", got)
	}
	// The straggler committed its ORIGINAL 1024-key lease in one span.
	for _, e := range audit.entries() {
		if e.start == 0 && e.end != 1024 {
			t.Fatalf("straggler committed [0,%d), want the merged [0,1024)", e.end)
		}
	}
}

// TestLiveStealAckPastSplitPoint: the worker acks a boundary past the
// requested split (it had already tested into the tail); the victim's
// lease must grow to the acked cut and the thief's shrink to match, so
// both commits stay exact.
func TestLiveStealAckPastSplitPoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	audit := newAudit()
	sc := newLiveScript(600, func(keep uint64) (uint64, bool) { return keep + 64, true })
	svc := startService(t, t.TempDir(), liveFleet(2, sc), stealServiceOptions(reg, audit))
	defer svc.Kill()

	j := runStealScenario(t, svc, sc, nil)
	if j.State != StateDone || j.Tested != stealSpace {
		t.Fatalf("job ended %v with %d keys tested, want done/%d", j.State, j.Tested, stealSpace)
	}
	verifyExactCoverage(t, j.ID, audit.entries(), stealSpace)

	s := reg.Snapshot()
	if got := s.Counters[telemetry.MetricJobsSteals]; got != 1 {
		t.Fatalf("steals = %d, want 1", got)
	}
	// keep = 812, acked cut = 876: the victim committed [0,876) and the
	// thief's stolen lease settled to [876, 1024).
	if got := s.Counters[telemetry.MetricJobsStolenKeys]; got != 1024-876 {
		t.Fatalf("stolen keys = %d, want %d", got, 1024-876)
	}
	var sawVictim bool
	for _, e := range audit.entries() {
		if e.start == 0 {
			sawVictim = true
			if e.end != 876 {
				t.Fatalf("victim committed [0,%d), want [0,876)", e.end)
			}
		}
	}
	if !sawVictim {
		t.Fatal("victim's shrunken lease never committed")
	}
}

// gateClock wraps a sim.Virtual so the FIRST timer that actually fires
// parks before running its callback: the test observes the firing on
// fired, arranges the interleaving under test, then opens allow. Every
// later firing runs through undisturbed.
type gateClock struct {
	inner sim.Clock

	mu    sync.Mutex
	gated bool
	fired chan struct{}
	allow chan struct{}
}

func newGateClock(inner sim.Clock) *gateClock {
	return &gateClock{inner: inner, fired: make(chan struct{}), allow: make(chan struct{})}
}

func (g *gateClock) Now() time.Time                  { return g.inner.Now() }
func (g *gateClock) Since(t time.Time) time.Duration { return g.inner.Since(t) }
func (g *gateClock) AfterFunc(d time.Duration, fn func()) sim.Timer {
	return g.inner.AfterFunc(d, func() {
		g.mu.Lock()
		first := !g.gated
		g.gated = true
		g.mu.Unlock()
		if first {
			close(g.fired)
			<-g.allow
		}
		fn()
	})
}

// TestExpireDuringStealHandshakeNoDoubleDisposition pins the
// expireLease-vs-Steal window on a deterministic virtual clock: the
// straggler's lease timeout fires at the very instant the steal pins the
// lease — the timer's callback is already in flight when stealLocked's
// Stop() misses — and the expiry must defer to the handshake instead of
// requeueing the interval a thief is simultaneously splitting. Before
// the fl.stealing guard in expireLease, this interleaving disposed of
// the same keys twice: once through the expiry requeue, once through the
// settled steal.
func TestExpireDuringStealHandshakeNoDoubleDisposition(t *testing.T) {
	eng := sim.NewEngine()
	clock := newGateClock(sim.NewVirtual(eng, time.Time{}))
	reg := telemetry.NewRegistry()
	audit := newAudit()
	sc := newLiveScript(600, func(keep uint64) (uint64, bool) { return keep, true })

	opts := stealServiceOptions(reg, audit)
	opts.Clock = clock
	opts.LeaseTimeout = 10 * time.Second
	svc := startService(t, t.TempDir(), liveFleet(2, sc), opts)
	defer svc.Kill()

	sp := specFor(t, "abba", "ab", 1, 11)
	sp.Steal = true
	job, err := svc.Submit("tenant", 0, sp)
	if err != nil {
		t.Fatal(err)
	}

	// Park both executors: the straggler holds [0,1024) with progress 600,
	// the other executor holds the next lease and waits at othersGate. All
	// lease timers are now armed at virtual t=10s and no service goroutine
	// will touch the clock until a gate opens.
	select {
	case <-sc.victimStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("straggler search never started")
	}
	select {
	case <-sc.othersParked:
	case <-time.After(10 * time.Second):
		t.Fatal("second executor never leased")
	}
	// Each executor's second loop queues the next lease behind its search;
	// once the pool is empty every lease (and its timer) has been issued.
	waitFor(t, svc, 10*time.Second, "queued leases", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		a := svc.life.active[job.ID]
		return a != nil && !a.leases.Leasable()
	})

	// Fire the timers. The straggler's lease was armed first, so its
	// expiry pops first and parks in the gate clock — the callback is "in
	// flight" exactly as when a wall-clock timer beats Stop to the punch.
	engineDone := make(chan struct{})
	go func() {
		eng.RunUntil(10.5)
		close(engineDone)
	}()
	select {
	case <-clock.fired:
	case <-time.After(10 * time.Second):
		t.Fatal("lease timer never fired")
	}

	// With the expiry callback pending, let the idle executor drain the
	// pool and open the shrink handshake: stealLocked's Stop() returns
	// false (the timer already fired), the lease is pinned stealing, and
	// the handshake parks mid-flight.
	close(sc.othersGate)
	select {
	case <-sc.shrinkStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("no shrink handshake within 10s")
	}

	// Release the expiry into the middle of the handshake. It must find
	// fl.stealing and defer — no requeue, no second disposition.
	close(clock.allow)
	select {
	case <-engineDone:
	case <-time.After(10 * time.Second):
		t.Fatal("virtual timers never drained")
	}
	s := reg.Snapshot()
	if got := s.Counters[telemetry.MetricJobsExpired]; got != 0 {
		t.Fatalf("lease expired mid-handshake: expired = %d, want 0 (deferred)", got)
	}
	if got := s.Counters[telemetry.MetricJobsRequeues]; got != 0 {
		t.Fatalf("requeues = %d mid-handshake, want 0", got)
	}

	// Settle the handshake and finish both halves.
	close(sc.shrinkRelease)
	waitFor(t, svc, 10*time.Second, "stolen tail to settle", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		a := svc.life.active[job.ID]
		if a == nil {
			return true
		}
		for _, le := range a.leases.Live() {
			if le.State.phase.pinned() {
				return false
			}
		}
		return true
	})
	close(sc.victimRelease)
	waitFor(t, svc, 10*time.Second, "job completion", func() bool {
		j, err := svc.Get(job.ID)
		return err == nil && j.Done()
	})

	j, err := svc.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Tested != stealSpace {
		t.Fatalf("tested %d keys, want exactly %d — the expiry/steal race double-disposed a lease", j.Tested, stealSpace)
	}
	verifyExactCoverage(t, j.ID, audit.entries(), stealSpace)

	s = reg.Snapshot()
	if got := s.Counters[telemetry.MetricJobsExpired]; got != 0 {
		t.Fatalf("expired = %d, want 0", got)
	}
	if got := s.Counters[telemetry.MetricJobsSteals]; got != 1 {
		t.Fatalf("steals = %d, want 1", got)
	}
	if got := s.Counters[telemetry.MetricJobsLateCommits]; got != 0 {
		t.Fatalf("late commits = %d, want 0", got)
	}
}
