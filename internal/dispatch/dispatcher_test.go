package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/keyspace"
)

// recordingWorker tests every id of its chunks into a shared coverage map
// and "finds" ids from a target set. speed scales its chunk appetite via
// the reported tuning.
type recordingWorker struct {
	name    string
	speed   float64
	targets map[uint64]bool
	cover   *coverage
	failAt  uint64 // fail after testing this many ids in total (0 = never)
	tested  uint64
	delay   time.Duration
}

type coverage struct {
	mu     sync.Mutex
	counts map[uint64]int
}

func newCoverage() *coverage { return &coverage{counts: make(map[uint64]int)} }

func (c *coverage) hit(id uint64) {
	c.mu.Lock()
	c.counts[id]++
	c.mu.Unlock()
}

func (w *recordingWorker) Name() string { return w.name }

func (w *recordingWorker) Tune(ctx context.Context) (core.Tuning, error) {
	return core.Tuning{MinBatch: 10, Throughput: w.speed}, nil
}

func (w *recordingWorker) Search(ctx context.Context, iv keyspace.Interval) (*Report, error) {
	rep := &Report{}
	n, _ := iv.Len64()
	start := iv.Start.Uint64()
	for i := uint64(0); i < n; i++ {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		if w.failAt > 0 && w.tested >= w.failAt {
			return rep, errors.New(w.name + " crashed")
		}
		id := start + i
		w.cover.hit(id)
		w.tested++
		rep.Tested++
		if w.targets[id] {
			rep.Found = append(rep.Found, []byte(fmt.Sprintf("id:%d", id)))
		}
	}
	if w.delay > 0 {
		time.Sleep(w.delay)
	}
	return rep, nil
}

func TestDispatcherCoversExactlyOnce(t *testing.T) {
	cover := newCoverage()
	targets := map[uint64]bool{123: true, 4567: true}
	d := NewDispatcher("root", Options{},
		&recordingWorker{name: "fast", speed: 100, cover: cover, targets: targets},
		&recordingWorker{name: "slow", speed: 10, cover: cover, targets: targets},
	)
	iv := keyspace.NewInterval(0, 10000)
	rep, err := d.Search(context.Background(), iv)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tested != 10000 {
		t.Errorf("tested %d, want 10000", rep.Tested)
	}
	if len(rep.Found) != 2 {
		t.Errorf("found %q", rep.Found)
	}
	for id := uint64(0); id < 10000; id++ {
		if cover.counts[id] != 1 {
			t.Fatalf("id %d covered %d times", id, cover.counts[id])
		}
	}
}

// TestDispatcherBalancesByThroughput: chunk sizes must follow the tuned
// throughputs, so the fast worker tests roughly 10x the ids of the slow
// one when both pace their chunks identically in wall time.
func TestDispatcherBalancesByThroughput(t *testing.T) {
	cover := newCoverage()
	fast := &recordingWorker{name: "fast", speed: 1000, cover: cover, delay: time.Millisecond}
	slow := &recordingWorker{name: "slow", speed: 100, cover: cover, delay: time.Millisecond}
	d := NewDispatcher("root", Options{}, fast, slow)
	if _, err := d.Search(context.Background(), keyspace.NewInterval(0, 50000)); err != nil {
		t.Fatal(err)
	}
	ratio := float64(fast.tested) / float64(slow.tested+1)
	if ratio < 4 {
		t.Errorf("fast/slow tested ratio = %.1f (%d vs %d), want >= 4",
			ratio, fast.tested, slow.tested)
	}
}

// TestDispatcherFaultTolerance: a worker that crashes mid-search must not
// lose coverage — its chunks are re-dispatched to the survivor.
func TestDispatcherFaultTolerance(t *testing.T) {
	cover := newCoverage()
	flaky := &recordingWorker{name: "flaky", speed: 100, cover: cover, failAt: 500}
	steady := &recordingWorker{name: "steady", speed: 100, cover: cover}
	d := NewDispatcher("root", Options{}, flaky, steady)
	rep, err := d.Search(context.Background(), keyspace.NewInterval(0, 5000))
	if err != nil {
		t.Fatalf("search failed despite a survivor: %v", err)
	}
	for id := uint64(0); id < 5000; id++ {
		if cover.counts[id] < 1 {
			t.Fatalf("id %d never covered after failure", id)
		}
	}
	if rep.Tested < 5000 {
		t.Errorf("tested %d, want >= 5000", rep.Tested)
	}
}

// TestDispatcherAllWorkersFail: with no survivors the search must report
// the unsearched remainder.
func TestDispatcherAllWorkersFail(t *testing.T) {
	cover := newCoverage()
	d := NewDispatcher("root", Options{},
		&recordingWorker{name: "f1", speed: 100, cover: cover, failAt: 100},
		&recordingWorker{name: "f2", speed: 100, cover: cover, failAt: 100},
	)
	_, err := d.Search(context.Background(), keyspace.NewInterval(0, 100000))
	if err == nil {
		t.Fatal("want error when every worker fails")
	}
	var nw *errNoWorkers
	if !errors.As(err, &nw) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if nw.remaining == 0 {
		t.Error("remaining should be non-zero")
	}
}

// TestDispatcherHierarchy composes dispatchers two levels deep, mirroring
// the paper's A -> (B, C), C -> D topology.
func TestDispatcherHierarchy(t *testing.T) {
	cover := newCoverage()
	mk := func(name string, speed float64) *recordingWorker {
		return &recordingWorker{name: name, speed: speed, cover: cover}
	}
	nodeD := NewDispatcher("node-D", Options{}, mk("8800", 480))
	nodeC := NewDispatcher("node-C", Options{}, mk("8600M", 71), nodeD)
	nodeB := NewDispatcher("node-B", Options{}, mk("660", 1841), mk("550Ti", 654))
	root := NewDispatcher("node-A", Options{}, mk("540M", 214), nodeB, nodeC)

	rep, err := root.Search(context.Background(), keyspace.NewInterval(0, 30000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tested != 30000 {
		t.Errorf("tested %d, want 30000", rep.Tested)
	}
	for id := uint64(0); id < 30000; id++ {
		if cover.counts[id] != 1 {
			t.Fatalf("id %d covered %d times", id, cover.counts[id])
		}
	}
	// The aggregate tuning must report the summed throughput.
	agg, err := root.Tune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 214.0 + 1841 + 654 + 71 + 480
	if agg.Throughput != want {
		t.Errorf("aggregate throughput = %v, want %v", agg.Throughput, want)
	}
}

// TestDispatcherSubtreeDeath kills every worker under node C of the
// paper's A -> (B, C), C -> D tree. Node D then runs out of workers and
// fails to C, C runs out and fails to the root, and the root requeues
// C's chunk once to the survivors: every id is tested, and Tested counts
// each exactly once because nothing of a failed chunk is gathered.
func TestDispatcherSubtreeDeath(t *testing.T) {
	cover := newCoverage()
	mk := func(name string, speed float64, failAt uint64) *recordingWorker {
		// The healthy workers pace their chunks so node C is sure to
		// claim one before the pool drains.
		return &recordingWorker{name: name, speed: speed, cover: cover, failAt: failAt, delay: time.Millisecond}
	}
	nodeD := NewDispatcher("node-D", Options{}, mk("8800", 480, 1))
	nodeC := NewDispatcher("node-C", Options{}, mk("8600M", 71, 1), nodeD)
	nodeB := NewDispatcher("node-B", Options{}, mk("660", 1841, 0), mk("550Ti", 654, 0))
	root := NewDispatcher("node-A", Options{}, mk("540M", 214, 0), nodeB, nodeC)

	const n = 30000
	rep, err := root.Search(context.Background(), keyspace.NewInterval(0, n))
	if err != nil {
		t.Fatalf("search failed despite surviving subtrees: %v", err)
	}
	if rep.Tested != n {
		t.Errorf("tested %d, want %d exactly", rep.Tested, n)
	}
	if rep.Requeues != 1 || rep.Retested == 0 {
		t.Errorf("root saw %d requeues of %d ids, want node C's one chunk", rep.Requeues, rep.Retested)
	}
	for id := uint64(0); id < n; id++ {
		if cover.counts[id] < 1 {
			t.Fatalf("id %d never covered after the subtree died", id)
		}
	}
}

func TestDispatcherMaxSolutions(t *testing.T) {
	cover := newCoverage()
	targets := make(map[uint64]bool)
	for id := uint64(0); id < 1000; id += 10 {
		targets[id] = true
	}
	w := &recordingWorker{name: "w", speed: 100, cover: cover, targets: targets}
	d := NewDispatcher("root", Options{MaxSolutions: 3, MinChunk: 50}, w)
	rep, err := d.Search(context.Background(), keyspace.NewInterval(0, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Found) < 3 {
		t.Errorf("found %d, want >= 3", len(rep.Found))
	}
	if rep.Tested >= 1_000_000 {
		t.Error("early stop did not stop")
	}
}

func TestDispatcherContextCancel(t *testing.T) {
	cover := newCoverage()
	w := &recordingWorker{name: "w", speed: 100, cover: cover, delay: 5 * time.Millisecond}
	d := NewDispatcher("root", Options{MinChunk: 10}, w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := d.Search(ctx, keyspace.NewInterval(0, 1_000_000_000))
	if err == nil {
		t.Fatal("want context error")
	}
}

func TestDispatcherRetune(t *testing.T) {
	calls := 0
	w := &FuncWorker{
		WorkerName: "w",
		TuneFunc: func(ctx context.Context) (core.Tuning, error) {
			calls++
			return core.Tuning{MinBatch: 1, Throughput: 10}, nil
		},
		SearchFunc: func(ctx context.Context, iv keyspace.Interval) (*Report, error) {
			n, _ := iv.Len64()
			return &Report{Tested: n}, nil
		},
	}
	d := NewDispatcher("root", Options{}, w)
	if _, err := d.Tune(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tune(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("tune calls = %d, want 1 (cached)", calls)
	}
	d.Retune()
	if _, err := d.Tune(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("tune calls after Retune = %d, want 2", calls)
	}
}

func TestDispatcherUntunableWorkerGetsNoWork(t *testing.T) {
	cover := newCoverage()
	broken := &FuncWorker{
		WorkerName: "broken",
		TuneFunc: func(ctx context.Context) (core.Tuning, error) {
			return core.Tuning{}, errors.New("no device")
		},
		SearchFunc: func(ctx context.Context, iv keyspace.Interval) (*Report, error) {
			t.Error("broken worker must not receive work")
			return &Report{}, nil
		},
	}
	good := &recordingWorker{name: "good", speed: 10, cover: cover}
	d := NewDispatcher("root", Options{}, broken, good)
	rep, err := d.Search(context.Background(), keyspace.NewInterval(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tested != 1000 {
		t.Errorf("tested %d", rep.Tested)
	}
}

func TestPoolClaimPutBack(t *testing.T) {
	p := NewTable[struct{}](keyspace.NewInterval(0, 100))
	a, ok := p.Issue(1, 30)
	if !ok || a.Interval.Len() != keyspace.IDOf(30) || a.N != 30 {
		t.Fatalf("issue: %v %v", a, ok)
	}
	if _, ok := p.Issue(1, 30); ok {
		t.Fatal("a live lease ID was issued twice")
	}
	if _, ok := p.Requeue(1); !ok {
		t.Fatal("requeue of a live lease refused")
	}
	if _, ok := p.Settle(1); ok {
		t.Fatal("a requeued lease was disposed of a second time")
	}
	total := uint64(0)
	for id := uint64(2); ; id++ {
		c, ok := p.Issue(id, 7)
		if !ok {
			break
		}
		total += c.N
		if _, ok := p.Settle(id); !ok {
			t.Fatalf("settle of live lease %d refused", id)
		}
	}
	if total != 100 {
		t.Errorf("reclaimed %d, want 100", total)
	}
	if p.Leasable() || !p.Exhausted() || len(p.Remaining()) != 0 {
		t.Error("table should be exhausted")
	}
	p = NewTable[struct{}](keyspace.NewInterval(5, 5))
	if p.Leasable() {
		t.Error("empty interval must not fill the pool")
	}
}

func TestDispatcherProgress(t *testing.T) {
	cover := newCoverage()
	var calls int
	var last uint64
	d := NewDispatcher("root", Options{
		MinChunk: 100,
		Progress: func(tested uint64, found int) { calls++; last = tested },
	}, &recordingWorker{name: "w", speed: 100, cover: cover})
	rep, err := d.Search(context.Background(), keyspace.NewInterval(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("progress never called")
	}
	if last != rep.Tested {
		t.Errorf("last progress %d != final tested %d", last, rep.Tested)
	}
}

// TestCheckpointRoundTrip: NewCheckpoint's value survives its JSON form.
func TestCheckpointRoundTrip(t *testing.T) {
	huge, _ := keyspace.ParseID("123456789012345678901234567890")
	hugeEnd, _ := huge.Add(keyspace.IDOf(9))
	cp := NewCheckpoint([]keyspace.Interval{
		keyspace.NewInterval(0, 1000),
		keyspace.NewInterval(7, 7), // empty: dropped
		{Start: huge, End: hugeEnd},
	}, 42, [][]byte{[]byte("abc")})
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tested != 42 || len(back.Found) != 1 || string(back.Found[0]) != "abc" || len(back.Remaining) != 2 {
		t.Errorf("round trip: %+v", back)
	}
	if back.RemainingKeys() != keyspace.IDOf(1009) {
		t.Errorf("remaining = %v, want 1009", back.RemainingKeys())
	}
}
