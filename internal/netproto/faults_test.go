package netproto

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
	"keysearch/internal/netproto/chaos"
)

// fastRetry keeps fault detection snappy in tests while staying
// deterministic (no jitter).
var fastRetry = RetryPolicy{MaxAttempts: 2, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond}

// chaosDialer returns a WorkerConfig dialer that applies plan to the
// first connection only; reconnections are clean.
func chaosDialer(plan chaos.Plan) func(ctx context.Context, network, addr string) (net.Conn, error) {
	var mu sync.Mutex
	first := true
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		p := chaos.Plan{}
		if first {
			p, first = plan, false
		}
		mu.Unlock()
		return chaos.Dial(ctx, network, addr, p)
	}
}

// bindWorkers fixes one spec on each remote worker so a
// dispatch.Dispatcher can drive them — a scheduler small enough that a
// test asserting on retry, rejoin and requeue sees only the transport's
// behaviour, not the job service's.
func bindWorkers(spec JobSpec, workers []*RemoteWorker) []dispatch.Worker {
	out := make([]dispatch.Worker, len(workers))
	for i, w := range workers {
		out[i] = &dispatch.FuncWorker{
			WorkerName: w.Name(),
			TuneFunc:   func(ctx context.Context) (core.Tuning, error) { return w.TuneSpec(ctx, spec) },
			SearchFunc: func(ctx context.Context, iv keyspace.Interval) (*dispatch.Report, error) {
				return w.SearchSpec(ctx, spec, iv)
			},
		}
	}
	return out
}

// searchSpace runs an exhaustive dispatch over the whole test space.
func searchSpace(ctx context.Context, t *testing.T, d *dispatch.Dispatcher) *dispatch.Report {
	t.Helper()
	space, _ := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	rep, err := d.Search(ctx, space.Whole())
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	return rep
}

func spaceSize(t *testing.T) uint64 {
	t.Helper()
	space, _ := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	n, _ := space.Whole().Len64()
	return n
}

// healthyPause parks the chaos tests' healthy workers after every chunk.
// The 18-chunk space takes a fast kernel well under a scheduler time
// slice, and a worker trading frames with the master keeps being woken
// first, so without the pause one worker could drain the space before
// the severed one issues its first chunk — and nothing would be severed.
const healthyPause = time.Millisecond

// TestClusterSurvivesWorkerDeath is the headline chaos test: 3 workers, a
// seeded schedule severs one mid-search (after its 5th write — in the
// middle of its first search-result frame), and the search must still
// find the key with the identical report a fault-free run produces. The
// exact Tested count proves no interval is counted twice: the only
// re-searched work is the requeued in-flight chunk, whose first partial
// pass was never gathered.
func TestClusterSurvivesWorkerDeath(t *testing.T) {
	run := func(t *testing.T, inject bool) (*dispatch.Report, []string) {
		spec := testJob(t, "zzz") // last key: the space must be fully searched
		m, err := NewMaster("127.0.0.1:0", MasterOptions{
			Heartbeat: -1, // keep the worker write schedule exact
			Retry:     fastRetry,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()

		for i := 0; i < 3; i++ {
			cfg := WorkerConfig{Name: "worker-" + string(rune('A'+i)), Workers: 1, TuneStart: 512}
			if i != 1 {
				cfg.Throttle = healthyPause
			}
			if inject && i == 1 {
				// Writes: hello (hdr+payload), tune result (hdr+payload),
				// then sever right after the header of the first search
				// result — the master sees a truncated frame.
				cfg.Dialer = chaosDialer(chaos.Plan{SeverAfterWrites: 5, Mode: chaos.Close})
			}
			go func() { _ = Dial(ctx, m.Addr(), cfg) }()
		}
		workers, err := m.AcceptWorkers(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}

		var mu sync.Mutex
		var requeued []string
		d := dispatch.NewDispatcher("chaos-root", dispatch.Options{
			MaxChunk: 1024, // many rounds per worker: the sever lands mid-search
			OnRequeue: func(worker string, iv keyspace.Interval, cause error) {
				mu.Lock()
				requeued = append(requeued, worker)
				mu.Unlock()
			},
		}, bindWorkers(spec, workers)...)
		rep := searchSpace(ctx, t, d)
		mu.Lock()
		defer mu.Unlock()
		return rep, append([]string(nil), requeued...)
	}

	clean, cleanRequeues := run(t, false)
	if len(cleanRequeues) != 0 {
		t.Fatalf("fault-free run requeued: %v", cleanRequeues)
	}
	faulty, requeues := run(t, true)

	if len(requeues) == 0 {
		t.Fatal("injected sever produced no requeue")
	}
	for _, w := range requeues {
		if w != "worker-B" {
			t.Errorf("requeue charged to %s, want worker-B", w)
		}
	}
	// The recovery must be invisible in the result: same key, same exact
	// tested count (every identifier gathered exactly once).
	if len(clean.Found) != 1 || string(clean.Found[0]) != "zzz" {
		t.Fatalf("clean run found %q", clean.Found)
	}
	if len(faulty.Found) != 1 || string(faulty.Found[0]) != "zzz" {
		t.Fatalf("faulty run found %q", faulty.Found)
	}
	if want := spaceSize(t); clean.Tested != want || faulty.Tested != want {
		t.Errorf("tested: clean=%d faulty=%d want=%d", clean.Tested, faulty.Tested, want)
	}
}

// TestWorkerReconnectsAndRejoins: the ONLY worker loses its connection
// mid-search; DialRetry re-dials, the master re-binds the fresh
// connection to the same worker identity inside the retry window, and
// the retried call completes — no dispatcher-level requeue, no failure.
func TestWorkerReconnectsAndRejoins(t *testing.T) {
	spec := testJob(t, "net")
	m, err := NewMaster("127.0.0.1:0", MasterOptions{
		Heartbeat: -1,
		Retry:     RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfg := WorkerConfig{
		Name: "phoenix", Workers: 1, TuneStart: 512,
		Dialer: chaosDialer(chaos.Plan{SeverAfterWrites: 5, Mode: chaos.Close}),
	}
	go func() {
		_ = DialRetry(ctx, m.Addr(), cfg, RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond})
	}()
	workers, err := m.AcceptWorkers(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	requeues := 0
	d := dispatch.NewDispatcher("rejoin-root", dispatch.Options{
		MaxSolutions: 1,
		MaxChunk:     4096,
		OnRequeue:    func(string, keyspace.Interval, error) { requeues++ },
	}, bindWorkers(spec, workers)...)
	space, _ := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	rep, err := d.Search(ctx, space.Whole())
	if err != nil {
		t.Fatalf("search failed despite reconnect: %v", err)
	}
	if len(rep.Found) == 0 || string(rep.Found[0]) != "net" {
		t.Errorf("found %q", rep.Found)
	}
	if requeues != 0 {
		t.Errorf("reconnect within the retry window still requeued %d chunks", requeues)
	}
}

// TestHeartbeatDetectsBlackhole: a partitioned worker (writes vanish,
// reads hang — no FIN ever reaches the master) is only detectable by
// heartbeat timeout. The master must declare it dead, requeue its
// interval and finish on the survivor.
func TestHeartbeatDetectsBlackhole(t *testing.T) {
	spec := testJob(t, "zzz")
	m, err := NewMaster("127.0.0.1:0", MasterOptions{
		Heartbeat:        50 * time.Millisecond,
		HeartbeatTimeout: 300 * time.Millisecond,
		Retry:            fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	victimCfg := WorkerConfig{
		Name: "victim", Workers: 1, TuneStart: 512,
		// Sever into a blackhole right after the tune result: the first
		// search request is swallowed silently.
		Dialer: chaosDialer(chaos.Plan{SeverAfterWrites: 4, Mode: chaos.Blackhole}),
	}
	go func() { _ = Dial(ctx, m.Addr(), victimCfg) }()
	go func() { _ = Dial(ctx, m.Addr(), WorkerConfig{Name: "survivor", Workers: 2, TuneStart: 512}) }()

	workers, err := m.AcceptWorkers(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var requeued []string
	d := dispatch.NewDispatcher("blackhole-root", dispatch.Options{
		MaxChunk: 2048,
		OnRequeue: func(worker string, iv keyspace.Interval, cause error) {
			mu.Lock()
			requeued = append(requeued, worker)
			mu.Unlock()
		},
	}, bindWorkers(spec, workers)...)
	rep := searchSpace(ctx, t, d)

	if len(rep.Found) != 1 || string(rep.Found[0]) != "zzz" {
		t.Errorf("found %q", rep.Found)
	}
	if want := spaceSize(t); rep.Tested != want {
		t.Errorf("tested %d, want %d", rep.Tested, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(requeued) == 0 {
		t.Error("blackholed worker was never declared dead")
	}
	for _, w := range requeued {
		if w != "victim" {
			t.Errorf("requeue charged to %s, want victim", w)
		}
	}
}

// TestMasterCloseUnblocksAccept: Close must fail a blocked AcceptWorkers
// with ErrMasterClosed (not a raw accept error) and hang up accepted
// worker connections.
func TestMasterCloseUnblocksAccept(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// One worker registers and is accepted.
	served := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", m.Addr())
		if err != nil {
			served <- err
			return
		}
		served <- ServeConn(ctx, conn, WorkerConfig{Name: "w", Workers: 1})
	}()
	if _, err := m.AcceptWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// A second AcceptWorkers blocks; Close must unblock it distinctly.
	acceptErr := make(chan error, 1)
	go func() {
		_, err := m.AcceptWorkers(ctx, 1)
		acceptErr <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-acceptErr:
		if !errors.Is(err, ErrMasterClosed) {
			t.Errorf("AcceptWorkers after Close: %v, want ErrMasterClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcceptWorkers still blocked after Close")
	}
	// The accepted worker's connection must have been closed too.
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("worker connection not closed by master Close")
	}
	if m.Close() != nil {
		t.Error("second Close not idempotent")
	}
}
