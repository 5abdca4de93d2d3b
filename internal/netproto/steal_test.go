package netproto

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"keysearch/internal/keyspace"
	"keysearch/internal/telemetry"
)

// lowerSpaceSize is the testJob keyspace: lowercase, lengths 1..3.
const lowerSpaceSize = 26 + 26*26 + 26*26*26

// startLiveWorker starts an in-process master/worker pair with the
// given search throttle and batch size, returning the master, the
// accepted remote worker and a cleanup-registered cancel.
func startLiveWorker(t *testing.T, opts MasterOptions, wcfg WorkerConfig) (*Master, *RemoteWorker) {
	t.Helper()
	m, err := NewMaster("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = Dial(ctx, m.Addr(), wcfg) }()

	actx, acancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer acancel()
	ws, err := m.AcceptWorkers(actx, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, ws[0]
}

// TestMasterHeartbeatValidation pins MasterOptions.Heartbeat semantics:
// zero takes the default, exactly -1 disables heartbeats, and any other
// negative value is a configuration error — not a silent disable.
func TestMasterHeartbeatValidation(t *testing.T) {
	for _, hb := range []time.Duration{0, -1, 2 * time.Second} { // -1 == -time.Nanosecond, the disable sentinel
		m, err := NewMaster("127.0.0.1:0", MasterOptions{Heartbeat: hb})
		if err != nil {
			t.Fatalf("Heartbeat %v rejected: %v", hb, err)
		}
		m.Close()
	}
	for _, hb := range []time.Duration{-2, -time.Second, -time.Millisecond} {
		m, err := NewMaster("127.0.0.1:0", MasterOptions{Heartbeat: hb})
		if err == nil {
			m.Close()
			t.Fatalf("Heartbeat %v accepted, want error", hb)
		}
		if !strings.Contains(err.Error(), "-1") {
			t.Fatalf("Heartbeat %v: error %q does not name the -1 convention", hb, err)
		}
	}
}

// TestLiveSearchShrinkHandshake drives the full protocol-v4 steal
// mechanics against a real (throttled) worker: the search streams
// progress marks at batch boundaries, Shrink moves its end to an acked
// boundary at or past the requested keep, the truncated result's Tested
// equals that boundary exactly, and a follow-up search of the tail on
// the SAME connection completes the space — head and tail tile it with
// no gap and no overlap, which is precisely the thief/victim split the
// job service performs.
func TestLiveSearchShrinkHandshake(t *testing.T) {
	_, w := startLiveWorker(t,
		MasterOptions{Heartbeat: 50 * time.Millisecond, HeartbeatTimeout: 5 * time.Second},
		WorkerConfig{Name: "shrinkee", Workers: 2, TuneStart: 1024, ProgressBatch: 64, Throttle: 2 * time.Millisecond})

	spec := testJob(t, "zzz") // the very last key: only the tail search may find it
	iv := keyspace.NewInterval(0, lowerSpaceSize)

	seq := w.NewSearchSeq()
	var mu sync.Mutex
	var marks []uint64
	progressed := make(chan struct{}, 1)
	type result struct {
		tested uint64
		found  int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		rep, err := w.SearchSpecLive(context.Background(), spec, nil, iv, seq, time.Millisecond, func(done uint64) {
			mu.Lock()
			marks = append(marks, done)
			mu.Unlock()
			select {
			case progressed <- struct{}{}:
			default:
			}
		})
		if err != nil {
			resCh <- result{err: err}
			return
		}
		resCh <- result{tested: rep.Tested, found: len(rep.Found)}
	}()

	select {
	case <-progressed:
	case <-time.After(10 * time.Second):
		t.Fatal("no progress mark within 10s")
	}
	mu.Lock()
	first := marks[0]
	mu.Unlock()
	if first == 0 || first%64 != 0 {
		t.Fatalf("first progress mark %d is not a positive batch boundary", first)
	}

	// A stale seq must be inert: the running search keeps its interval.
	if cut, ok := w.Shrink(context.Background(), seq+1, first); ok {
		t.Fatalf("shrink with stale seq acked at %d", cut)
	}

	keep := first + 128
	cut, ok := w.Shrink(context.Background(), seq, keep)
	if !ok {
		t.Fatalf("shrink to %d refused", keep)
	}
	if cut < keep || cut >= lowerSpaceSize || cut%64 != 0 {
		t.Fatalf("shrink acked at %d, want a batch boundary in [%d, %d)", cut, keep, lowerSpaceSize)
	}

	head := <-resCh
	if head.err != nil {
		t.Fatal(head.err)
	}
	if head.tested != cut {
		t.Fatalf("shrunk search tested %d keys, acked boundary was %d", head.tested, cut)
	}
	if head.found != 0 {
		t.Fatalf("shrunk head found %d keys, the target lives in the tail", head.found)
	}
	mu.Lock()
	for _, mk := range marks {
		if mk > cut {
			t.Fatalf("progress mark %d past the acked boundary %d", mk, cut)
		}
	}
	mu.Unlock()

	// The thief's half: the tail on the same connection. Together the two
	// searches cover the space exactly once and recover the key.
	tail, err := w.SearchSpec(context.Background(), spec, keyspace.NewInterval(int64(cut), lowerSpaceSize))
	if err != nil {
		t.Fatal(err)
	}
	if tail.Tested != lowerSpaceSize-cut {
		t.Fatalf("tail tested %d keys, want %d", tail.Tested, lowerSpaceSize-cut)
	}
	if len(tail.Found) != 1 || string(tail.Found[0]) != "zzz" {
		t.Fatalf("tail found %q, want [zzz]", tail.Found)
	}
}

// TestLiveSearchKeepsEveryGoroutineBusy: one 2²⁰-key search on an
// 8-goroutine worker hands a batch to all eight. The worker used to cut
// the interval into 65536-key batches of four 16384-key claims each, with
// a barrier between batches, so at most four goroutines ever had work.
// The hour-long throttle parks every goroutine after its first batch, so
// core.tested stops at exactly one batch per goroutine that got one —
// whatever the host's CPU count.
func TestLiveSearchKeepsEveryGoroutineBusy(t *testing.T) {
	const workers, batch = 8, 1 << 14
	reg := telemetry.NewRegistry()
	m, err := NewMaster("127.0.0.1:0", MasterOptions{Heartbeat: 50 * time.Millisecond, HeartbeatTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	go func() {
		_ = Dial(wctx, m.Addr(), WorkerConfig{Name: "eight-wide", Workers: workers, Throttle: time.Hour, Telemetry: reg})
	}()
	actx, acancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer acancel()
	ws, err := m.AcceptWorkers(actx, 1)
	if err != nil {
		t.Fatal(err)
	}

	spec := testJob(t, "zzzzz")
	spec.MaxLen = 5
	sctx, cancelSearch := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = ws[0].SearchSpec(sctx, spec, keyspace.NewInterval(0, 1<<20))
	}()
	defer func() {
		cancelSearch()
		stopWorker() // the parked goroutines wake on the worker's context, not the call's
		<-done
	}()

	tested := func() uint64 { return reg.Snapshot().Counters[telemetry.MetricCoreTested] }
	for deadline := time.Now().Add(10 * time.Second); tested() < workers*batch && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if got := tested(); got != workers*batch {
		t.Fatalf("%d keys tested with every goroutine parked after one batch: %d goroutines had work, want %d",
			got, got/batch, workers)
	}
}

// TestShrinkAfterSearchEndsRefused: once the search result is back, the
// worker has nothing to shrink and the master has no active search — the
// handshake must refuse cleanly rather than hang or invent a boundary.
func TestShrinkAfterSearchEndsRefused(t *testing.T) {
	_, w := startLiveWorker(t,
		MasterOptions{Heartbeat: 50 * time.Millisecond, HeartbeatTimeout: 5 * time.Second},
		WorkerConfig{Name: "done-worker", Workers: 2, TuneStart: 1024})

	spec := testJob(t, "ab")
	seq := w.NewSearchSeq()
	rep, err := w.SearchSpecLive(context.Background(), spec, nil, keyspace.NewInterval(0, 702), seq, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tested != 702 {
		t.Fatalf("tested %d, want 702", rep.Tested)
	}
	if cut, ok := w.Shrink(context.Background(), seq, 100); ok {
		t.Fatalf("shrink of a finished search acked at %d", cut)
	}
}

// TestCancelMidSearchKeepsConnection pins the graceful-cancel path:
// cancelling the context mid-search must stop the worker at a batch
// boundary, return promptly with the context's error, and leave the
// connection usable — the next search on the same worker runs without a
// reconnect cycle. Before the fix, Executor.Search ignored cancellation
// until the search finished (or poisoned the connection and burned a
// rejoin on every lease the service cancelled).
func TestCancelMidSearchKeepsConnection(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, w := startLiveWorker(t,
		MasterOptions{Heartbeat: 50 * time.Millisecond, HeartbeatTimeout: 5 * time.Second, Telemetry: reg},
		WorkerConfig{Name: "cancellee", Workers: 2, TuneStart: 1024, ProgressBatch: 64, Throttle: 2 * time.Millisecond})

	spec := testJob(t, "zzz")
	ctx, cancel := context.WithCancel(context.Background())
	progressed := make(chan struct{}, 1)
	start := time.Now()
	type result struct {
		rep error
		dur time.Duration
	}
	done := make(chan result, 1)
	go func() {
		_, err := w.SearchSpecLive(ctx, spec, nil, keyspace.NewInterval(0, lowerSpaceSize), w.NewSearchSeq(), time.Millisecond, func(uint64) {
			select {
			case progressed <- struct{}{}:
			default:
			}
		})
		done <- result{rep: err, dur: time.Since(start)}
	}()

	select {
	case <-progressed:
	case <-time.After(10 * time.Second):
		t.Fatal("no progress mark within 10s")
	}
	cancel()

	res := <-done
	if !errors.Is(res.rep, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", res.rep)
	}
	// The full throttled space takes ~600ms; a prompt cancel is far under
	// the 5s drain bound, let alone the full run.
	if res.dur > 5*time.Second {
		t.Fatalf("cancel took %v to unwind", res.dur)
	}

	// The connection survived: a follow-up search succeeds immediately and
	// exactly, with zero reconnects recorded.
	rep, err := w.SearchSpec(context.Background(), testJob(t, "ab"), keyspace.NewInterval(0, 702))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tested != 702 || len(rep.Found) != 1 || string(rep.Found[0]) != "ab" {
		t.Fatalf("post-cancel search: tested %d found %q", rep.Tested, rep.Found)
	}
	if n := reg.Snapshot().Counters[telemetry.MetricNetReconnects]; n != 0 {
		t.Fatalf("cancellation burned %d reconnects, want 0", n)
	}
}

// TestProgressShrinkRoundTrips covers the protocol-v4 codecs the way
// TestMessageRoundTrips covers v1-v3.
func TestProgressShrinkRoundTrips(t *testing.T) {
	sr, err := DecodeSearch(EncodeSearch(SearchRequest{
		SpecID: 7, Seq: 99, ProgressEvery: 250 * time.Millisecond,
		Start: keyspace.IDOf(10), End: keyspace.IDOf(20),
	}))
	if err != nil || sr.Seq != 99 || sr.ProgressEvery != 250*time.Millisecond {
		t.Errorf("search request: %+v %v", sr, err)
	}

	p, err := DecodeProgress(EncodeProgress(Progress{Seq: 3, Done: 1 << 40}))
	if err != nil || p.Seq != 3 || p.Done != 1<<40 {
		t.Errorf("progress: %+v %v", p, err)
	}
	if _, err := DecodeProgress([]byte{1, 2, 3}); err == nil {
		t.Error("torn progress frame accepted")
	}

	s, err := DecodeShrink(EncodeShrink(Shrink{Seq: 8, Keep: 4096}))
	if err != nil || s.Seq != 8 || s.Keep != 4096 {
		t.Errorf("shrink: %+v %v", s, err)
	}
	if _, err := DecodeShrink(nil); err == nil {
		t.Error("empty shrink frame accepted")
	}

	for _, ok := range []bool{true, false} {
		a, err := DecodeShrinkAck(EncodeShrinkAck(ShrinkAck{Seq: 5, Keep: 777, OK: ok}))
		if err != nil || a.Seq != 5 || a.Keep != 777 || a.OK != ok {
			t.Errorf("shrink ack (ok=%v): %+v %v", ok, a, err)
		}
	}
	if _, err := DecodeShrinkAck([]byte{0, 0, 0, 0, 0, 0, 0, 1}); err == nil {
		t.Error("torn shrink ack accepted")
	}
}
