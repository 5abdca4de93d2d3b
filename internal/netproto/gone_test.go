package netproto

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/netproto/chaos"
)

// failCounter is a jobs.Executor that counts its executor's failed
// searches and remembers the last error. When wait is set, every search
// first waits for it to close; when failed is set, the first failed
// search closes it.
type failCounter struct {
	jobs.Executor
	wait   <-chan struct{}
	failed chan struct{}

	mu    sync.Mutex
	fails int
	last  error
}

func (f *failCounter) Search(ctx context.Context, spec jobs.Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	if f.wait != nil {
		select {
		case <-f.wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	rep, err := f.Executor.Search(ctx, spec, iv)
	if err != nil {
		f.mu.Lock()
		f.fails++
		f.last = err
		if f.fails == 1 && f.failed != nil {
			close(f.failed)
		}
		f.mu.Unlock()
	}
	return rep, err
}

// TestGoneWorkerRetiredAtOnce: a keyworker whose connection is severed in
// the middle of its first search result and that never rejoins fails that
// one lease with an error wrapping jobs.ErrExecutorGone, and the service
// retires it at once — one failed search, not one per MaxSearchFailures
// (default 3), each of which would wait out a whole retry window for a
// worker that is not coming back. The survivor finishes the job: the
// committed leases tile the space exactly and the last key is found. The
// steady worker searches nothing until the severed one has failed: else
// it could commit every lease before the severed one leased any.
func TestGoneWorkerRetiredAtOnce(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0", MasterOptions{
		Heartbeat: -1, // keep the worker write schedule exact
		Retry:     fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, name := range []string{"steady", "severed"} {
		cfg := WorkerConfig{Name: name, Workers: 1, TuneStart: 512}
		if name == "severed" {
			// Writes: hello and tune result (header + payload each), then
			// the sever lands right after the first search result's header.
			// Dial, not DialRetry: the worker never comes back.
			cfg.Dialer = chaosDialer(chaos.Plan{SeverAfterWrites: 5, Mode: chaos.Close})
		}
		go func() { _ = Dial(ctx, m.Addr(), cfg) }()
	}
	remote, err := m.AcceptWorkers(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	execs := make([]jobs.Executor, len(remote))
	counted := map[string]*failCounter{}
	severedFailed := make(chan struct{})
	for i, w := range remote {
		fc := &failCounter{Executor: NewExecutor(w)}
		if w.Name() == "severed" {
			fc.failed = severedFailed
		} else {
			fc.wait = severedFailed
		}
		execs[i], counted[w.Name()] = fc, fc
	}

	store, err := jobs.Open(t.TempDir(), jobs.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var amu sync.Mutex
	var spans []keyspace.Interval
	svc := jobs.NewService(store, execs, jobs.Options{
		MaxLease: 512,
		OnCommit: func(_, _ string, iv keyspace.Interval, tested uint64) {
			if n, _ := iv.Len64(); n != tested {
				t.Errorf("lease %v committed %d tested keys", iv, tested)
			}
			amu.Lock()
			spans = append(spans, iv)
			amu.Unlock()
		},
	})
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer svc.Kill()

	sum := md5.Sum([]byte("zzz"))
	job, err := svc.Submit("ops", 0, jobs.Spec{
		Algorithm: "md5",
		Target:    hex.EncodeToString(sum[:]),
		Charset:   keyspace.Lower.String(),
		MinLen:    1,
		MaxLen:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const size = 26 + 26*26 + 26*26*26
	for {
		got, err := svc.Get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Done() {
			if got.Tested != size || len(got.Found) != 1 || got.Found[0] != "zzz" {
				t.Fatalf("job ended tested %d of %d, found %q", got.Tested, size, got.Found)
			}
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("job did not finish (state %v, tested %d)", got.State, got.Tested)
		case <-time.After(10 * time.Millisecond):
		}
	}

	severed := counted["severed"]
	severed.mu.Lock()
	fails, last := severed.fails, severed.last
	severed.mu.Unlock()
	if fails != 1 || !errors.Is(last, jobs.ErrExecutorGone) {
		t.Errorf("severed worker failed %d searches (last: %v), want 1 wrapping jobs.ErrExecutorGone", fails, last)
	}
	steady := counted["steady"]
	steady.mu.Lock()
	defer steady.mu.Unlock()
	if steady.fails != 0 {
		t.Errorf("steady worker failed %d searches (last: %v)", steady.fails, steady.last)
	}

	amu.Lock()
	defer amu.Unlock()
	sort.Slice(spans, func(i, k int) bool { return spans[i].Start.Cmp(spans[k].Start) < 0 })
	next := uint64(0)
	for _, iv := range spans {
		if iv.Start.Uint64() != next {
			t.Fatalf("committed lease starts at %v, want %d (gap or overlap)", iv.Start, next)
		}
		next = iv.End.Uint64()
	}
	if next != size {
		t.Errorf("committed leases cover [0,%d), space is %d", next, size)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
