package netproto

import (
	"bytes"
	"context"
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keysearch/internal/jobs"
	"keysearch/internal/telemetry"
)

// tableWatch records the spec and corpus table sizes each in-process
// keyworker reports through testHookTables, in order.
type tableWatch struct {
	mu  sync.Mutex
	log map[string][][2]int
}

func watchTables(t testing.TB) *tableWatch {
	tw := &tableWatch{log: make(map[string][][2]int)}
	hook := func(worker string, specs, corpora int) {
		tw.mu.Lock()
		tw.log[worker] = append(tw.log[worker], [2]int{specs, corpora})
		tw.mu.Unlock()
	}
	testHookTables.Store(&hook)
	t.Cleanup(func() { testHookTables.Store(nil) })
	return tw
}

// sizes returns the worker's tables as last reported, and how many
// reports there have been.
func (tw *tableWatch) sizes(worker string) (specs, corpora, reports int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	l := tw.log[worker]
	if len(l) == 0 {
		return 0, 0, 0
	}
	return l[len(l)-1][0], l[len(l)-1][1], len(l)
}

// since returns the reports from index i on.
func (tw *tableWatch) since(worker string, i int) [][2]int {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return append([][2]int(nil), tw.log[worker][i:]...)
}

// sentTables reads the master's mirror of w's worker tables: the specs
// and corpora it counts as sent, the spec IDs held, the forgets queued.
func (w *RemoteWorker) sentTables() (specs, corpora, holds, forgets int) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	var sent, queued map[uint64]uint64
	if w.conn != nil {
		sent, queued = w.conn.specSent, w.conn.forgets
	}
	named := make(map[uint64]bool)
	for _, c := range sent {
		named[c] = c != 0
	}
	for _, ok := range named {
		if ok {
			corpora++
		}
	}
	return len(sent), corpora, len(w.holds), len(queued)
}

// forgetRig is a loopback master with in-process keyworkers that redial,
// a NoSync store, and a service over one Executor per worker, driven by
// hand (StartManual) with leases of a fixed size.
type forgetRig struct {
	t     testing.TB
	ctx   context.Context
	m     *Master
	ws    []*RemoteWorker
	execs []jobs.Executor
	svc   *jobs.Service
	reg   *telemetry.Registry
	// recv counts the bytes each worker has read from the master.
	recv []*atomic.Int64
}

func newForgetRig(t testing.TB, prefix string, workers int, lease uint64) *forgetRig {
	t.Helper()
	return newHeartbeatRig(t, prefix, workers, lease, -1)
}

// newHeartbeatRig is newForgetRig with the master's heartbeat interval
// (0 = the 2s default, -1 = off).
func newHeartbeatRig(t testing.TB, prefix string, workers int, lease uint64, heartbeat time.Duration) *forgetRig {
	t.Helper()
	m, err := NewMaster("127.0.0.1:0", MasterOptions{
		Heartbeat: heartbeat,
		Retry:     RetryPolicy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	r := &forgetRig{t: t, ctx: ctx, m: m, reg: telemetry.NewRegistry()}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		m.Close()
		wg.Wait()
	})
	for i := 0; i < workers; i++ {
		n := new(atomic.Int64)
		r.recv = append(r.recv, n)
		cfg := WorkerConfig{Name: fmt.Sprintf("%s-%d", prefix, i), Workers: 1, TuneStart: 512,
			Dialer: func(ctx context.Context, network, addr string) (net.Conn, error) {
				var d net.Dialer
				c, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countingConn{c, n}, nil
			}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = DialRetry(ctx, m.Addr(), cfg, RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
		}()
	}
	if r.ws, err = m.AcceptWorkers(ctx, workers); err != nil {
		t.Fatal(err)
	}
	for _, w := range r.ws {
		r.execs = append(r.execs, NewExecutor(w))
	}
	store, err := jobs.Open(t.TempDir(), jobs.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	r.svc = jobs.NewService(store, r.execs, jobs.Options{
		MinLease: lease, MaxLease: lease, MaxSearchFailures: 1000, Telemetry: r.reg,
	})
	if err := r.svc.StartManual(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.svc.Shutdown(context.Background()) })
	return r
}

// countingConn counts the bytes read through it.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// step runs one lease on executor i and commits it, calling between
// (when non-nil) after the search and before the commit. It reports
// false when executor i has nothing to lease.
func (r *forgetRig) step(i int, between func(jobs.Lease)) bool {
	r.t.Helper()
	l, ok := r.svc.TryLease(i)
	if !ok {
		return false
	}
	rep, err := r.execs[i].Search(r.ctx, l.Spec, l.Interval)
	if err != nil {
		r.t.Fatalf("lease %d of %s: %v", l.ID, l.JobID, err)
	}
	if between != nil {
		between(l)
	}
	r.svc.Commit(l, rep)
	return true
}

func (r *forgetRig) submit(tenant string, spec jobs.Spec) string {
	r.t.Helper()
	j, err := r.svc.Submit(tenant, 0, spec)
	if err != nil {
		r.t.Fatal(err)
	}
	return j.ID
}

func (r *forgetRig) state(id string) jobs.State {
	r.t.Helper()
	j, err := r.svc.Get(id)
	if err != nil {
		r.t.Fatal(err)
	}
	return j.State
}

// corpusDigests returns n hex SHA1 digests of keys outside any test
// space, distinct per seed.
func corpusDigests(seed string, n int) []string {
	out := make([]string, n)
	for k := range out {
		sum := sha1.Sum([]byte(fmt.Sprintf("%s-%d", seed, k)))
		out[k] = hex.EncodeToString(sum[:])
	}
	return out
}

func singleSpec(key string) jobs.Spec {
	sum := md5.Sum([]byte(key))
	return jobs.Spec{Algorithm: "md5", Target: hex.EncodeToString(sum[:]), Charset: "ab", MinLen: 1, MaxLen: 3}
}

func openFDs(t testing.TB) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestSoakSpecTablesFlat pushes 10³, then 10⁴ jobs through a manually
// driven service over one loopback keyworker — every 10th a 10³-digest
// SHA1 corpus, the rest single-target MD5, with cancels, pauses and one
// reconnect — and holds every spec table to the jobs still alive: the
// master's sent-sets and held spec IDs, and the worker's spec and corpus
// tables, the latter read right after a search, when the call's prelude
// has delivered every forget. Goroutines and open descriptors must stay
// within a constant of their 10³ values. Heap and WAL bytes are not
// bounded here: the store keeps every terminal job's spec and the WAL
// never compacts (ROADMAP 0(b) and 3(c)), so those bounds wait for them.
func TestSoakSpecTablesFlat(t *testing.T) {
	tw := watchTables(t)
	r := newForgetRig(t, "soak", 1, 8)
	w, name := r.ws[0], "soak-0"
	running := r.reg.Gauge(telemetry.MetricJobsRunning)

	check := func(l jobs.Lease) {
		// The gauge was refreshed when this lease was issued, and nothing
		// has left the active set since.
		live := int(running.Value())
		specs, corpora, _ := tw.sizes(name)
		ms, mc, mh, _ := w.sentTables()
		if specs > live || corpora > live || ms > live || mc > live || mh > live {
			t.Fatalf("lease %d of %s with %d live jobs: worker tables %d specs / %d corpora, master sent %d specs / %d corpora, %d held",
				l.ID, l.JobID, live, specs, corpora, ms, mc, mh)
		}
	}
	var paused []string
	var severed net.Conn
	submitted := 0
	var g1000, fd1000 int
	for _, decade := range []int{1000, 10000} {
		for submitted < decade {
			var ids []string
			for k := 0; k < 4; k++ {
				spec := singleSpec(fmt.Sprint("soak-", submitted))
				if submitted%10 == 9 {
					spec = jobs.Spec{Algorithm: "sha1", Targets: corpusDigests(fmt.Sprint("soak-", submitted), 1000),
						Charset: "ab", MinLen: 1, MaxLen: 3}
				}
				ids = append(ids, r.submit(fmt.Sprint("tenant-", k), spec))
				submitted++
			}
			// Jobs paused a group ago come back through admission.
			for _, id := range paused {
				if _, err := r.svc.Resume(id); err != nil {
					t.Fatal(err)
				}
			}
			paused = paused[:0]
			for n := 0; r.step(0, check); n++ {
				if n != 1 {
					continue
				}
				if submitted%28 == 0 {
					_, _ = r.svc.Cancel(ids[1], "soak")
				}
				if submitted%44 == 4 {
					if _, err := r.svc.Pause(ids[2]); err == nil {
						paused = append(paused, ids[2])
					}
				}
			}
			if submitted == 500 {
				// One reconnect: the worker redials under its name and the
				// fresh connection's tables start empty on both sides.
				w.cmu.Lock()
				severed = w.conn.c
				w.cmu.Unlock()
				severed.Close()
			}
		}
		w.cmu.Lock()
		rejoined := w.conn != nil && w.conn.c != severed
		w.cmu.Unlock()
		if !rejoined {
			t.Fatal("the worker is not on a fresh connection")
		}
		runtime.GC()
		g, fd := runtime.NumGoroutine(), openFDs(t)
		t.Logf("%d jobs: %d goroutines, %d descriptors", submitted, g, fd)
		if decade == 1000 {
			g1000, fd1000 = g, fd
			continue
		}
		if g > g1000+8 || fd > fd1000+4 {
			t.Errorf("at %d jobs: %d goroutines and %d descriptors, against %d and %d at 10³", submitted, g, fd, g1000, fd1000)
		}
	}
	if _, _, reports := tw.sizes(name); reports == 0 {
		t.Fatal("the worker never reported its tables")
	}
}

// TestForgetSharedCorpus: two live jobs name one corpus (same digests,
// different charsets). When the first ends the corpus stays on the
// worker and none of its bytes are sent again for the second; when both
// end, the master's sent-sets are empty at once and the worker's tables
// are once the next call delivers the forgets.
func TestForgetSharedCorpus(t *testing.T) {
	tw := watchTables(t)
	r := newForgetRig(t, "shared", 1, 8)
	w, name := r.ws[0], "shared-0"
	digests := corpusDigests("shared", 1000)
	a := r.submit("t1", jobs.Spec{Algorithm: "sha1", Targets: digests, Charset: "ab", MinLen: 1, MaxLen: 3})
	b := r.submit("t2", jobs.Spec{Algorithm: "sha1", Targets: digests, Charset: "abc", MinLen: 1, MaxLen: 3})
	blob, _ := mustResolve(t, jobs.Spec{Algorithm: "sha1", Targets: digests, Charset: "ab", MinLen: 1, MaxLen: 3})

	for r.state(a) != jobs.StateDone {
		if !r.step(0, nil) {
			t.Fatal("ran out of leases before the first job finished")
		}
	}
	if specs, corpora, _ := tw.sizes(name); specs != 2 || corpora != 1 {
		t.Fatalf("with both jobs live the worker holds %d specs / %d corpora, want 2 / 1", specs, corpora)
	}
	if ms, mc, _, _ := w.sentTables(); ms != 1 || mc != 1 {
		t.Fatalf("after the first job ended the master counts %d specs / %d corpora sent, want 1 / 1", ms, mc)
	}
	before := r.recv[0].Load()
	for r.step(0, nil) {
	}
	if r.state(b) != jobs.StateDone {
		t.Fatalf("second job %s", r.state(b))
	}
	if got := r.recv[0].Load() - before; got >= int64(len(blob)) {
		t.Errorf("the worker read %d bytes for the second job's remaining leases, the corpus is %d: it was sent again", got, len(blob))
	}
	reps := tw.since(name, 0)
	for len(reps) > 0 && reps[0][1] == 0 { // before the corpus arrived
		reps = reps[1:]
	}
	for _, rep := range reps {
		if rep[1] == 0 {
			t.Fatalf("the corpus left the worker while the second job was live: %v", tw.since(name, 0))
		}
	}
	if ms, mc, mh, mf := w.sentTables(); ms != 0 || mc != 0 || mh != 0 || mf != 1 {
		t.Fatalf("both jobs ended: master counts %d specs / %d corpora sent and %d held, %d forgets queued; want 0 / 0 / 0 and 1", ms, mc, mh, mf)
	}
	_, _, mark := tw.sizes(name)
	if _, err := r.execs[0].Tune(r.ctx); err != nil {
		t.Fatal(err)
	}
	// The forget rides at the head of the tune's prelude.
	if reps := tw.since(name, mark); len(reps) == 0 || reps[0] != [2]int{0, 0} {
		t.Fatalf("worker tables after the forgets landed: %v, want [0 0] first", reps)
	}
}

func mustResolve(t *testing.T, spec jobs.Spec) ([]byte, uint64) {
	t.Helper()
	h, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	return h.Corpus()
}

// TestForgetPendingAcrossReconnect: a forget queued for a connection that
// breaks before the next call is not sent on the fresh one, whose tables
// start empty, and the next job's spec is registered there in full.
func TestForgetPendingAcrossReconnect(t *testing.T) {
	tw := watchTables(t)
	r := newForgetRig(t, "rejoin", 1, 8)
	w, name := r.ws[0], "rejoin-0"
	first := r.submit("t", singleSpec("first"))
	for r.step(0, nil) {
	}
	if r.state(first) != jobs.StateDone {
		t.Fatalf("first job %s", r.state(first))
	}
	if _, _, _, mf := w.sentTables(); mf != 1 {
		t.Fatalf("%d forgets queued after the first job, want 1", mf)
	}
	_, _, mark := tw.sizes(name)
	w.cmu.Lock()
	c := w.conn.c
	w.cmu.Unlock()
	c.Close()
	// Wait for the rejoin, so the next call starts on the fresh
	// connection with the forget still queued.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		w.cmu.Lock()
		rejoined := len(w.newConn) > 0
		w.cmu.Unlock()
		if rejoined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker did not rejoin")
		}
	}
	if _, _, _, mf := w.sentTables(); mf != 1 {
		t.Fatalf("%d forgets queued at the rejoin, want 1", mf)
	}

	second := r.submit("t", jobs.Spec{Algorithm: "sha1", Targets: corpusDigests("rejoin", 100), Charset: "ab", MinLen: 1, MaxLen: 3})
	for r.step(0, nil) {
	}
	if r.state(second) != jobs.StateDone {
		t.Fatalf("second job %s", r.state(second))
	}
	// The fresh connection saw the corpus, then the spec, and no forget
	// (which the worker reports even when it names no spec it holds).
	if reps := tw.since(name, mark); len(reps) != 2 || reps[0] != [2]int{0, 1} || reps[1] != [2]int{1, 1} {
		t.Fatalf("worker tables on the fresh connection: %v, want [0 1] then [1 1]", reps)
	}
}

// TestTwoExecutorsShareOneBuild: with two executors on one master, a
// multi-target job's target set is built once, by its handle: both
// executors' leases carry the same *targetset.Set and hand their calls
// the same encoded corpus.
func TestTwoExecutorsShareOneBuild(t *testing.T) {
	r := newForgetRig(t, "pair", 2, 8)
	id := r.submit("t", jobs.Spec{Algorithm: "sha1", Targets: corpusDigests("pair", 1000), Charset: "abc", MinLen: 1, MaxLen: 3})
	var sets []any
	var blobs [][]byte
	leased := make([]int, len(r.execs))
	for busy := true; busy; {
		busy = false
		for i := range r.execs {
			busy = r.step(i, func(l jobs.Lease) {
				job, err := l.Spec.CrackerJob()
				if err != nil {
					t.Fatal(err)
				}
				_, blob, err := r.execs[i].(*Executor).bind(l.Spec)
				if err != nil {
					t.Fatal(err)
				}
				sets, blobs = append(sets, job.Corpus), append(blobs, blob)
				leased[i]++
			}) || busy
		}
	}
	if r.state(id) != jobs.StateDone || leased[0] == 0 || leased[1] == 0 {
		t.Fatalf("job %s after %v leases per executor", r.state(id), leased)
	}
	for i := range sets {
		if sets[i] != sets[0] || &blobs[i][0] != &blobs[0][0] {
			t.Fatalf("lease %d runs another build of the corpus", i)
		}
	}
}

// FuzzForgetFrame: the MsgForget codec must never panic, and whatever
// decodes must re-encode byte-identically.
func FuzzForgetFrame(f *testing.F) {
	f.Add(EncodeForget(Forget{SpecID: 0xdeadbeefcafe}))
	f.Add(EncodeForget(Forget{SpecID: ^uint64(0)}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(append(EncodeForget(Forget{SpecID: 7}), 0xcc))
	f.Fuzz(func(t *testing.T, data []byte) {
		fg, err := DecodeForget(data)
		if err != nil {
			if len(data) == 8 {
				t.Fatalf("8-byte forget refused: %v", err)
			}
			return
		}
		if !bytes.Equal(EncodeForget(fg), data) {
			t.Fatal("forget round trip changed the bytes")
		}
	})
}

// BenchmarkMasterLease is one lease on the master path: TryLease, an
// Executor.Search over loopback to an in-process keyworker on a 256-key
// interval, and Commit, for a job whose SHA1 corpus holds 10 or 10⁴
// digests. Both sizes should cost alike: the job is resolved once, not
// per lease. The corpus=N runs have heartbeats off; heartbeat/corpus=10
// runs the 2s default that keymaster and the benchmark fleet serve with,
// and should cost what corpus=10 does: the pinger is the connection's,
// not the call's.
func BenchmarkMasterLease(b *testing.B) {
	for _, c := range []struct {
		name      string
		n         int
		heartbeat time.Duration
	}{{"corpus=10", 10, -1}, {"corpus=10000", 10000, -1}, {"heartbeat/corpus=10", 10, 0}} {
		n := c.n
		b.Run(c.name, func(b *testing.B) {
			r := newHeartbeatRig(b, fmt.Sprintf("bench-%d", n), 1, 256, c.heartbeat)
			svc := r.svc
			// 20 symbols up to length 8: far more leases than any run takes.
			if _, err := svc.Submit("bench", 0, jobs.Spec{Algorithm: "sha1", Targets: corpusDigests("bench", n),
				Charset: "abcdefghijklmnopqrst", MinLen: 1, MaxLen: 8}); err != nil {
				b.Fatal(err)
			}
			lease := func() {
				l, ok := svc.TryLease(0)
				if !ok {
					b.Fatal("no lease")
				}
				rep, err := r.execs[0].Search(r.ctx, l.Spec, l.Interval)
				if err != nil {
					b.Fatal(err)
				}
				svc.Commit(l, rep)
			}
			lease() // the first lease resolves the job and ships its corpus
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lease()
			}
		})
	}
}
