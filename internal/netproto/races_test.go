package netproto

// Deterministic regression tests for three lifecycle races, each pinned
// to an exact interleaving with the package's test hooks:
//
//  1. shutdown requeue vs concurrent search completion — exactly one of
//     MsgSearchResult / MsgRequeue may leave the worker per interval;
//  2. the lost-interval window between accepting a search and recording
//     it as in-flight — a cancellation inside the window must still
//     hand the interval back;
//  3. registration-overflow teardown vs concurrent rejoin — the live
//     replacement connection must not be orphaned.
//
// The final test replays race 1's schedule over a real TCP cluster and
// asserts the coverage invariant end to end: summed Tested equals the
// keyspace exactly, even when workers are cancelled at the precise
// instant a search completes.

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
)

// pipeHandshake plays the master's side of the v2 handshake on the
// master end of a net.Pipe and registers spec, returning its ID.
func pipeHandshake(t *testing.T, mconn net.Conn, spec JobSpec) uint64 {
	t.Helper()
	_ = mconn.SetDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := ReadFrame(mconn)
	if err != nil || typ != MsgHello {
		t.Fatalf("want hello, got type %d, err %v", typ, err)
	}
	hello, err := DecodeHello(payload)
	if err != nil || hello.Version != Version {
		t.Fatalf("bad hello %+v: %v", hello, err)
	}
	if err := WriteFrame(mconn, MsgHello, EncodeHello(Hello{Version: Version, Name: "master"})); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(mconn, MsgSpec, EncodeSpec(spec)); err != nil {
		t.Fatal(err)
	}
	_ = mconn.SetDeadline(time.Time{})
	return SpecID(spec)
}

// TestRequeueResultRaceSingleDisposition pins the interleaving where a
// local shutdown lands at the exact instant a search completes: the
// search has returned but not yet reported, the shutdown goroutine sees
// it still in flight and decides to requeue. Unfixed, the worker sends
// BOTH MsgSearchResult and MsgRequeue for the interval and the master
// re-dispatches keys it already counted; fixed, the claim under st's
// lock lets exactly one disposition through.
func TestRequeueResultRaceSingleDisposition(t *testing.T) {
	searchDone := make(chan struct{})
	releaseSearch := make(chan struct{})
	claimed := make(chan struct{})
	releaseShutdown := make(chan struct{})
	var doneOnce, claimOnce sync.Once
	onSearchDone := func(worker string) {
		if worker != "race-disposition-w" {
			return
		}
		doneOnce.Do(func() {
			close(searchDone)
			<-releaseSearch
		})
	}
	onClaimed := func(worker string) {
		if worker != "race-disposition-w" {
			return
		}
		claimOnce.Do(func() {
			close(claimed)
			<-releaseShutdown
		})
	}
	testHookSearchDone.Store(&onSearchDone)
	testHookRequeueClaimed.Store(&onClaimed)
	defer testHookSearchDone.Store(nil)
	defer testHookRequeueClaimed.Store(nil)

	mconn, wconn := net.Pipe()
	defer mconn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = ServeConn(ctx, wconn, WorkerConfig{Name: "race-disposition-w", Workers: 1})
	}()

	spec := testJob(t, "zz")
	id := pipeHandshake(t, mconn, spec)
	iv := keyspace.NewInterval(0, 300)
	_ = mconn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(mconn, MsgSearch, EncodeSearch(SearchRequest{SpecID: id, Start: iv.Start, End: iv.End})); err != nil {
		t.Fatal(err)
	}

	// The schedule: the search finishes locally and parks before its
	// disposition; the shutdown goroutine then claims the interval and
	// parks before writing; the search side is released first, so any
	// (buggy) result frame hits the wire ahead of the requeue.
	<-searchDone
	cancel()
	<-claimed
	close(releaseSearch)

	var results, requeues int
	_ = mconn.SetReadDeadline(time.Now().Add(700 * time.Millisecond))
	if typ, _, err := ReadFrame(mconn); err == nil {
		if typ == MsgSearchResult {
			results++
		} else {
			t.Fatalf("unexpected frame type %d before requeue released", typ)
		}
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read before requeue released: %v", err)
	}
	close(releaseShutdown)
	_ = mconn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		typ, payload, err := ReadFrame(mconn)
		if err != nil {
			break // worker hung up after its requeue
		}
		switch typ {
		case MsgSearchResult:
			results++
		case MsgRequeue:
			rq, derr := DecodeRequeue(payload)
			if derr != nil {
				t.Fatal(derr)
			}
			if rq.Start.Cmp(iv.Start) != 0 || rq.End.Cmp(iv.End) != 0 {
				t.Fatalf("requeued [%v,%v), interval was [%v,%v)", rq.Start, rq.End, iv.Start, iv.End)
			}
			requeues++
		default:
			t.Fatalf("unexpected frame type %d", typ)
		}
	}
	<-served

	if results+requeues != 1 {
		t.Fatalf("got %d result frame(s) and %d requeue frame(s); exactly one disposition may leave the worker", results, requeues)
	}
	if requeues != 1 {
		t.Fatalf("shutdown claimed the interval, so the one disposition must be the requeue (got %d results, %d requeues)", results, requeues)
	}
}

// TestCancelInAcceptWindowStillRequeues pins the lost-interval window:
// a search has been accepted (the worker is busy) but cancellation
// lands before the search goroutine is spawned. Unfixed — busy set in
// one critical section, inflight recorded in a later one — the
// shutdown path found nothing to hand back and the master burned a
// full heartbeat timeout on a silently dropped interval; fixed, busy
// and inflight are set together, so a MsgRequeue always arrives.
func TestCancelInAcceptWindowStillRequeues(t *testing.T) {
	begun := make(chan struct{})
	releaseBegin := make(chan struct{})
	var once sync.Once
	onBegin := func(worker string) {
		if worker != "race-window-w" {
			return
		}
		once.Do(func() {
			close(begun)
			<-releaseBegin
		})
	}
	testHookSearchBegin.Store(&onBegin)
	defer testHookSearchBegin.Store(nil)

	mconn, wconn := net.Pipe()
	defer mconn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = ServeConn(ctx, wconn, WorkerConfig{Name: "race-window-w", Workers: 1})
	}()

	spec := testJob(t, "zz")
	id := pipeHandshake(t, mconn, spec)
	iv := keyspace.NewInterval(0, 300)
	_ = mconn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(mconn, MsgSearch, EncodeSearch(SearchRequest{SpecID: id, Start: iv.Start, End: iv.End})); err != nil {
		t.Fatal(err)
	}

	// Cancel inside the window: the read loop is parked right after
	// accepting the search, before the search goroutine exists.
	<-begun
	cancel()
	defer close(releaseBegin)

	_ = mconn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := ReadFrame(mconn)
	if err != nil {
		t.Fatalf("no requeue for the accepted interval (conn: %v); the interval was silently dropped", err)
	}
	if typ != MsgRequeue {
		t.Fatalf("want MsgRequeue, got type %d", typ)
	}
	rq, err := DecodeRequeue(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rq.Start.Cmp(iv.Start) != 0 || rq.End.Cmp(iv.End) != 0 {
		t.Fatalf("requeued [%v,%v), interval was [%v,%v)", rq.Start, rq.End, iv.Start, iv.End)
	}
}

// rawRegister dials the master and completes the v2 handshake under
// name, returning the client end of the connection.
func rawRegister(t *testing.T, addr, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, MsgHello, EncodeHello(Hello{Version: Version, Name: name})); err != nil {
		t.Fatal(err)
	}
	typ, _, err := ReadFrame(conn)
	if err != nil || typ != MsgHello {
		t.Fatalf("want hello ack, got type %d, err %v", typ, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn
}

// TestPendingFullTeardownVsRejoin pins the registration-overflow race:
// with the pending buffer full, the master tears a fresh registration
// back down — while a rejoin under the same name concurrently offers
// the worker a replacement connection. Unfixed, the teardown deleted
// the map entry and dropped only its own conn, orphaning the live
// replacement (never closed, never served); fixed, the teardown
// re-checks ownership under the lock, marks the worker closed and
// drains the offered conn.
func TestPendingFullTeardownVsRejoin(t *testing.T) {
	full := make(chan struct{})
	releaseFull := make(chan struct{})
	var once sync.Once
	onFull := func(worker string) {
		if worker != "race-drifter" {
			return
		}
		once.Do(func() {
			close(full)
			<-releaseFull
		})
	}
	testHookPendingFull.Store(&onFull)
	defer testHookPendingFull.Store(nil)

	m, err := NewMaster("127.0.0.1:0", MasterOptions{PendingBuffer: 1, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	connA := rawRegister(t, m.Addr(), "filler") // fills the 1-slot pending buffer
	defer connA.Close()
	// The hello ack goes out before the master enqueues the worker, so
	// wait for the filler to hold the slot: otherwise the drifter can take
	// it, the filler overflows instead, and the hook never fires.
	for deadline := time.Now().Add(5 * time.Second); len(m.pending) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("filler never reached the pending buffer")
		}
		time.Sleep(time.Millisecond)
	}
	connB1 := rawRegister(t, m.Addr(), "race-drifter") // overflow: parks in the teardown window
	defer connB1.Close()
	<-full
	connB2 := rawRegister(t, m.Addr(), "race-drifter") // concurrent rejoin by name
	defer connB2.Close()

	// Wait until the rejoin's conn is actually enqueued on the worker
	// before letting the teardown proceed — the racy moment.
	m.mu.Lock()
	w := m.workers["race-drifter"]
	m.mu.Unlock()
	if w == nil {
		t.Fatal("worker entry missing while its registration is parked")
	}
	for deadline := time.Now().Add(5 * time.Second); len(w.newConn) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("rejoin conn never offered")
		}
		time.Sleep(time.Millisecond)
	}
	close(releaseFull)

	// Both of drifter's connections must be closed by the master: the
	// overflowed original AND the offered replacement. An orphaned
	// replacement would block here until the deadline.
	for _, c := range []struct {
		name string
		conn net.Conn
	}{{"overflowed original", connB1}, {"offered replacement", connB2}} {
		_ = c.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, _, err := ReadFrame(c.conn); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s conn was orphaned: read err %v (want prompt close)", c.name, err)
		}
	}

	// And the master's conn table must drain back to just the filler's.
	for deadline := time.Now().Add(3 * time.Second); ; {
		m.mu.Lock()
		n := len(m.conns)
		_, mapped := m.workers["race-drifter"]
		m.mu.Unlock()
		if n == 1 && !mapped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("master leaked state: %d conns tracked (want 1), drifter mapped=%v", n, mapped)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelAtSearchCompletionKeepsCoverageExact replays the
// requeue/result schedule over a real TCP cluster: a victim worker is
// cancelled at the exact instant a search completes (twice), redials,
// and rejoins. Whatever mix of results and requeues crosses the wire,
// the dispatcher's summed Tested must equal the keyspace exactly —
// never exceed it — and the planted key must be found.
func TestCancelAtSearchCompletionKeepsCoverageExact(t *testing.T) {
	spec := testJob(t, "zzz")
	master, err := NewMaster("127.0.0.1:0", MasterOptions{
		Heartbeat:        50 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		Retry:            RetryPolicy{MaxAttempts: 6, BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var victimCancel atomic.Value // context.CancelFunc for the victim's current connection
	var completions atomic.Int64
	onSearchDone := func(worker string) {
		if worker != "race-stable" && worker != "race-victim" {
			return
		}
		if n := completions.Add(1); n == 2 || n == 4 {
			if c, ok := victimCancel.Load().(context.CancelFunc); ok {
				c()
			}
		}
	}
	testHookSearchDone.Store(&onSearchDone)
	defer testHookSearchDone.Store(nil)

	cfg := func(name string) WorkerConfig {
		return WorkerConfig{Name: name, Workers: 2, TuneStart: 2048}
	}
	go func() {
		_ = DialRetry(ctx, master.Addr(), cfg("race-stable"), RetryPolicy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond})
	}()
	go func() { // the victim: each cancellation is followed by a redial under the same name
		for ctx.Err() == nil {
			vctx, vc := context.WithCancel(ctx)
			victimCancel.Store(vc)
			_ = Dial(vctx, master.Addr(), cfg("race-victim"))
			vc()
			time.Sleep(30 * time.Millisecond)
		}
	}()

	workers, err := master.AcceptWorkers(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := dispatch.NewDispatcher("exact", dispatch.Options{MaxSolutions: 0, MaxChunk: 1500},
		bindWorkers(spec, workers)...)
	rep := searchSpace(ctx, t, d)

	if want := spaceSize(t); rep.Tested != want {
		t.Fatalf("tested %d keys of a %d-key space; coverage must be exact", rep.Tested, want)
	}
	if len(rep.Found) != 1 || string(rep.Found[0]) != "zzz" {
		t.Fatalf("found %q, want exactly [zzz]", rep.Found)
	}
	if completions.Load() < 4 {
		t.Fatalf("only %d search completions; the cancel-at-completion schedule never fired", completions.Load())
	}
}

// TestCancelledTuneAnswersError: a tuning step cut short by a local
// shutdown must answer MsgError, never a MsgTuneResult — the master would
// feed the invented throughput to the balance rule as a real share. The
// shutdown goroutine is parked before it hangs up, so whatever the tune
// goroutine answers reaches the wire.
func TestCancelledTuneAnswersError(t *testing.T) {
	claimed := make(chan struct{})
	releaseShutdown := make(chan struct{})
	var once sync.Once
	onClaimed := func(worker string) {
		if worker != "cancelled-tune-w" {
			return
		}
		once.Do(func() {
			close(claimed)
			<-releaseShutdown
		})
	}
	testHookRequeueClaimed.Store(&onClaimed)
	defer testHookRequeueClaimed.Store(nil)

	mconn, wconn := net.Pipe()
	defer mconn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	cfg := WorkerConfig{Name: "cancelled-tune-w", Workers: 1}
	go func() {
		defer close(served)
		_ = ServeConn(ctx, wconn, cfg)
	}()

	spec := testJob(t, "zz")
	id := pipeHandshake(t, mconn, spec)
	cancel()
	<-claimed
	defer func() {
		close(releaseShutdown)
		<-served
	}()

	_ = mconn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(mconn, MsgTune, EncodeTuneRequest(TuneRequest{SpecID: id})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(mconn)
	if err != nil {
		t.Fatalf("no answer to the cancelled tune: %v", err)
	}
	if typ != MsgError {
		t.Fatalf("cancelled tune answered frame type %d (%x), want MsgError", typ, payload)
	}

	job, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tuneLocal(ctx, job, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("tuneLocal on a cancelled context = %+v, %v; want context.Canceled", res, err)
	}
}
