package dispatch

import (
	"context"
	"sync"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/keyspace"
	"keysearch/internal/telemetry"
)

// Options configures a Dispatcher.
type Options struct {
	// MaxSolutions stops the search once this many keys have been found
	// (0 = exhaust the interval).
	MaxSolutions int
	// RoundScale multiplies the balanced per-worker chunk sizes N_j.
	// Values above 1 reduce dispatch overhead at the cost of a longer
	// straggler tail; §III notes N could "be arbitrarily increased to
	// minimize the overhead caused by the dispatch and merge steps".
	// 0 means 1.
	RoundScale float64
	// MinChunk floors the per-worker chunk size (0 = 1).
	MinChunk uint64
	// MaxChunk caps the per-worker chunk size (0 = no cap). A failed
	// worker's whole in-flight chunk is requeued and re-searched, so the
	// cap bounds the work lost to a single failure at the cost of more
	// dispatch round-trips.
	MaxChunk uint64
	// Progress, when non-nil, is called (serialized) after every gathered
	// chunk with the cumulative tested count and number of solutions so
	// far — §III's periodic collection of "a fairly small amount of data
	// from each device".
	Progress func(tested uint64, found int)
	// OnRequeue, when non-nil, is called (serialized) each time a worker
	// is declared dead and its in-flight interval returns to the pool.
	OnRequeue func(worker string, iv keyspace.Interval, cause error)
	// Telemetry, when non-nil, receives the dispatch metrics and events:
	// per-worker tested counts, chunk sizes, round latencies, requeues
	// and the retested counter (see internal/telemetry's names.go). A
	// nil registry costs one branch per gathered chunk.
	Telemetry *telemetry.Registry
}

// Dispatcher drives a set of workers over identifier intervals. It
// implements Worker itself, so dispatchers compose into the arbitrary
// trees of §III ("in a hierarchical topology, the task will dispatch work
// to other network's subtrees").
type Dispatcher struct {
	name    string
	workers []Worker
	opts    Options

	mu      sync.Mutex
	tunings []core.Tuning
	tuned   bool
}

// NewDispatcher builds a dispatcher over the given workers.
func NewDispatcher(name string, opts Options, workers ...Worker) *Dispatcher {
	return &Dispatcher{name: name, workers: workers, opts: opts}
}

// Name identifies the dispatcher.
func (d *Dispatcher) Name() string { return d.name }

// Workers returns the attached workers.
func (d *Dispatcher) Workers() []Worker { return d.workers }

// Tune runs the tuning step on every worker concurrently, caches the
// results and returns the aggregate tuning of the subtree: throughput is
// the sum of the children's, the minimum batch is the sum of the balanced
// children batches (§III).
func (d *Dispatcher) Tune(ctx context.Context) (core.Tuning, error) {
	d.mu.Lock()
	if d.tuned {
		t := core.Aggregate(d.tunings)
		d.mu.Unlock()
		return t, nil
	}
	d.mu.Unlock()

	tunings := TuneAll(ctx, d.workers)

	d.mu.Lock()
	d.tunings = tunings
	d.tuned = true
	t := core.Aggregate(tunings)
	d.mu.Unlock()
	return t, nil
}

// Retune clears the cached tunings; the next Search re-runs the tuning
// step. Call after the worker population or their performance changes
// (the paper's dynamic-network extension).
func (d *Dispatcher) Retune() {
	d.mu.Lock()
	d.tuned = false
	d.mu.Unlock()
}

// Tuner is the tuning half of a Worker or a jobs.Executor.
type Tuner interface {
	Tune(ctx context.Context) (core.Tuning, error)
}

// TuneAll runs the tuning step on every node concurrently. A node that
// cannot be tuned gets the zero tuning, so Shares assigns it no work.
func TuneAll[T Tuner](ctx context.Context, nodes []T) []core.Tuning {
	tunings := make([]core.Tuning, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tn, err := n.Tune(ctx); err == nil {
				tunings[i] = tn
			}
		}()
	}
	wg.Wait()
	return tunings
}

// Shares applies the paper's balancing rule plus the callers' clamps to
// the tuned throughputs: N_j = N_max · X_j / X_max, multiplied by scale
// (<= 0 means 1) and clamped to [lo, hi] (lo 0 means 1, hi 0 means
// uncapped; hi wins when they conflict — the cap bounds the work lost to
// one failure). A node with zero throughput gets zero, whatever the
// floor.
func Shares(tunings []core.Tuning, scale float64, lo, hi uint64) []uint64 {
	if scale <= 0 {
		scale = 1
	}
	shares := core.Balance(tunings)
	for i, tn := range tunings {
		if tn.Throughput <= 0 {
			shares[i] = 0
			continue
		}
		shares[i] = max(uint64(float64(shares[i])*scale), lo, 1)
		if hi > 0 {
			shares[i] = min(shares[i], hi)
		}
	}
	return shares
}

func (d *Dispatcher) workerShares(tunings []core.Tuning) []uint64 {
	return Shares(tunings, d.opts.RoundScale, d.opts.MinChunk, d.opts.MaxChunk)
}

// Search dispatches the interval across the workers: each worker
// repeatedly claims a chunk proportional to its tuned throughput and
// searches it; failed workers are dropped and their unfinished chunks
// return to the pool. Search satisfies the Worker interface.
func (d *Dispatcher) Search(ctx context.Context, iv keyspace.Interval) (*Report, error) {
	start := time.Now()
	if _, err := d.Tune(ctx); err != nil {
		return nil, err
	}
	d.mu.Lock()
	tunings := append([]core.Tuning(nil), d.tunings...)
	d.mu.Unlock()

	shares := d.workerShares(tunings)
	tel := d.opts.Telemetry
	for i, w := range d.workers {
		if shares[i] == 0 {
			continue
		}
		tel.Gauge(telemetry.PerNode(telemetry.MetricDispatchXj, w.Name())).Set(tunings[i].Throughput)
		tel.Gauge(telemetry.PerNode(telemetry.MetricDispatchShare, w.Name())).Set(float64(shares[i]))
	}

	var (
		mu      sync.Mutex // guards work, rep and everything below
		cond    = sync.NewCond(&mu)
		work    = NewTable[struct{}](iv)
		rep     = &Report{}
		errs    []error
		stopped bool
		leases  uint64 // last lease ID issued
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() { // wake idle waiters when the search is cancelled
		<-ctx.Done()
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	}()

	var wg sync.WaitGroup
	for i, w := range d.workers {
		if shares[i] == 0 {
			continue // dead or useless worker gets no goroutine
		}
		wg.Add(1)
		go func(i int, w Worker) {
			defer wg.Done()
			wt := newWorkerTelemetry(tel, w.Name())
			for {
				mu.Lock()
				var lease *Entry[struct{}]
				for {
					if stopped || ctx.Err() != nil {
						mu.Unlock()
						return
					}
					var ok bool
					if lease, ok = work.Issue(leases+1, shares[i]); ok {
						leases++
						break
					}
					if work.Exhausted() {
						mu.Unlock()
						return // pool drained and nothing pending anywhere
					}
					// The pool is empty but chunks are in flight on other
					// workers; one of them may fail and requeue its chunk,
					// so an idle worker must wait here, not exit — leaving
					// would strand a requeued interval with no one to
					// search it.
					cond.Wait()
				}
				chunk, chunkLen := lease.Interval, lease.N
				mu.Unlock()
				wt.dispatched(chunkLen)

				roundStart := time.Now()
				sub, err := w.Search(ctx, chunk)
				round := time.Since(roundStart)

				mu.Lock()
				if err != nil {
					// Nothing of the chunk counts as searched — also when
					// the error is the search being cancelled.
					work.Requeue(lease.ID)
				} else {
					work.Settle(lease.ID)
				}
				if err != nil && ctx.Err() == nil {
					// Worker failed mid-chunk: reclaim the whole chunk so
					// surviving workers pick it up (§III fault tolerance).
					// Re-testing a prefix the worker may have covered is
					// the price of never missing an identifier.
					// The chunk's identifiers count toward Retested, NOT
					// Tested: the failed pass was never gathered, so the
					// gathered totals stay exactly equal to the interval
					// size while the duplicated work stays visible.
					errs = append(errs, err)
					rep.Requeues++
					rep.Retested += chunkLen
					wt.requeued(chunkLen, err)
					if d.opts.OnRequeue != nil {
						d.opts.OnRequeue(w.Name(), chunk, err)
					}
					cond.Broadcast()
					mu.Unlock()
					return
				}
				if sub != nil {
					rep.Found = append(rep.Found, sub.Found...)
					rep.Tested += sub.Tested
					wt.gathered(sub.Tested, round)
					if d.opts.Progress != nil {
						d.opts.Progress(rep.Tested, len(rep.Found))
					}
					if d.opts.MaxSolutions > 0 && len(rep.Found) >= d.opts.MaxSolutions {
						stopped = true
						cancel()
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}(i, w)
	}
	wg.Wait()

	rep.Elapsed = time.Since(start)
	if ctx.Err() != nil && !stopped {
		return rep, ctx.Err()
	}
	if !work.Exhausted() && !stopped {
		var left uint64
		for _, iv := range work.Remaining() {
			n, _ := iv.Len64()
			left += n
		}
		return rep, &errNoWorkers{name: d.name, remaining: left, causes: errs}
	}
	return rep, nil
}
