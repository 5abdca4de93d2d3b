package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"keysearch/internal/keyspace"
	"keysearch/internal/telemetry"
)

// Options configures a Search run.
type Options struct {
	// Workers is the number of concurrent search goroutines; 0 means
	// runtime.NumCPU(). This is the fine-grain parallelism of the paper's
	// pattern (the GPU-thread analogue on a CPU).
	Workers int
	// ChunkSize is the number of candidate identifiers a worker claims at a
	// time; 0 derives it from the inputs: defaultChunkSize, or an even
	// share of the interval per goroutine when that is smaller, so a short
	// interval is never handed whole to one goroutine. Chunks are the
	// intra-node granularity knob: large enough to amortize claiming
	// overhead (the paper's n_j tuning at thread scale), small enough to
	// balance load. Live marks and shrink boundaries land on multiples of
	// it.
	ChunkSize uint64
	// MaxSolutions stops the search once that many solutions are found;
	// 0 means exhaust the interval.
	MaxSolutions int
	// Live, when non-nil, is a fresh NewLive handle for the searched
	// interval: it receives the tested-prefix mark after every chunk and
	// lets the caller shrink the search while it runs. Used by dispatchers
	// to gather periodic status (§III: "collect periodically a fairly
	// small amount of data from each device") and to steal a straggler's
	// tail.
	Live *Live
	// Telemetry, when non-nil, receives the core.tested counter and
	// core.rate meter. Updates are batched per claimed chunk, so the
	// per-candidate hot loop is untouched and the overhead is one atomic
	// add plus one meter mark per ChunkSize candidates.
	Telemetry *telemetry.Registry
}

const (
	defaultChunkSize = 1 << 14
	// minChunkSize floors the derived claim size: below it a claim's lock
	// and Seek are no longer amortized over the candidates it hands out.
	minChunkSize = 1 << 8
)

// Result reports the outcome of a Search run.
type Result struct {
	// Solutions holds the candidates accepted by the test, in no
	// particular order across workers.
	Solutions [][]byte
	// Tested is the exact number of candidates evaluated.
	Tested uint64
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// Exhausted reports whether the whole interval was searched (false if
	// stopped early by MaxSolutions or context cancellation).
	Exhausted bool
}

// Throughput returns the observed keys-per-second rate.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Tested) / r.Elapsed.Seconds()
}

// Search exhaustively evaluates the candidates of interval iv (a range of
// identifiers of the factory's space) against test, using a pool of
// workers. Each worker claims contiguous chunks, seeks once per chunk via
// f(id) and then iterates with the cheap next operator — the fine-grain
// schema of §IV: "each thread would generate its start identifier ... to
// reduce the time spent on the conversion routine ... by applying the next
// operator".
func Search(ctx context.Context, factory Factory, iv keyspace.Interval, test TestFunc, opt Options) (*Result, error) {
	if test == nil {
		return nil, errors.New("core: nil test")
	}
	return SearchEach(ctx, factory, iv, func() TestFunc { return test }, opt)
}

// SearchEach is Search with a per-worker test factory, for stateful test
// kernels that are not safe for concurrent use (the common case: the
// optimized hash searchers keep reverse-context caches).
func SearchEach(ctx context.Context, factory Factory, iv keyspace.Interval, newTest TestFactory, opt Options) (*Result, error) {
	if factory == nil || newTest == nil {
		return nil, errors.New("core: nil factory or test factory")
	}
	return search(ctx, factory, iv, opt, func(errCh chan<- error, report reportFunc) walkFunc {
		test := newTest()
		// The bare return inside the loop reports ok = false: the chunk
		// was cut short and its error is on errCh.
		return func(enum Enumerator, n uint64) (ok bool) {
			var found [][]byte
			tested := uint64(0)
			//keyvet:hotloop
			for i := uint64(0); i < n; i++ {
				cand := enum.Candidate()
				tested++
				if test(cand) {
					// Solutions are vanishingly rare; copying out of
					// the enumerator's reused buffer on a match is the
					// one allocation this loop may make.
					cp := make([]byte, len(cand)) //keyvet:allow hotloop
					copy(cp, cand)
					found = append(found, cp) //keyvet:allow hotloop
				}
				if i+1 < n && !enum.Next() {
					errCh <- fmt.Errorf("core: enumerator exhausted %d candidates early", n-i-1) //keyvet:allow hotloop (fatal exit path)
					report(found, tested)
					return
				}
			}
			report(found, tested)
			return true
		}
	})
}

// RunTestFunc tests one run piece: the n keys that follow key in
// prefix-major order, key included, which differ from it only in their
// first k bytes (keyspace.Cursor.Run). It appends a copy of every solution
// to found and returns it, and must not retain key.
type RunTestFunc func(key []byte, k int, n uint64, found [][]byte) [][]byte

// RunTestFactory returns an independent RunTestFunc for one worker, as
// TestFactory does for SearchEach.
type RunTestFactory func() RunTestFunc

// SearchRuns is SearchEach for a kernel that tests a run at a time: each
// claimed chunk is handed to the test as the pieces of the prefix-major
// runs it covers — one call per run, plus a partial run at either end —
// so the kernel keeps its per-run state (packed suffix, reversal) and
// enumerates the varying bytes itself. Chunks, Live marks, shrinks,
// telemetry and the Result are exactly SearchEach's; under SuffixMajor
// every run is one key.
func SearchRuns(ctx context.Context, space *keyspace.Space, iv keyspace.Interval, newTest RunTestFactory, opt Options) (*Result, error) {
	if space == nil || newTest == nil {
		return nil, errors.New("core: nil space or run test factory")
	}
	return search(ctx, KeyspaceFactory(space), iv, opt, func(errCh chan<- error, report reportFunc) walkFunc {
		test := newTest()
		return func(enum Enumerator, n uint64) bool {
			cur := enum.(*KeyEnumerator).cursor
			var found [][]byte
			left := n
			//keyvet:hotloop
			for {
				k, run := cur.Run()
				run = min(run, left)
				found = test(cur.Key(), k, run, found)
				if left -= run; left == 0 || !cur.NextRun() {
					break
				}
			}
			report(found, n-left)
			if left > 0 {
				errCh <- fmt.Errorf("core: enumerator exhausted %d candidates early", left)
				return false
			}
			return true
		}
	})
}

// reportFunc folds one chunk's solutions and tested count into the
// search's Result.
type reportFunc func(found [][]byte, tested uint64)

// search runs a walk over the pool's chunks and gathers the Result: the
// part SearchEach and SearchRuns share. newWalk is called once per
// goroutine with the pool's error channel and the per-chunk report.
func search(ctx context.Context, factory Factory, iv keyspace.Interval, opt Options,
	newWalk func(errCh chan<- error, report reportFunc) walkFunc) (*Result, error) {
	p, err := newPool(factory, iv, opt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{}
	testedCtr := opt.Telemetry.Counter(telemetry.MetricCoreTested)
	rateMeter := opt.Telemetry.Meter(telemetry.MetricCoreRate)

	report := func(found [][]byte, tested uint64) {
		testedCtr.Add(tested)
		rateMeter.Mark(tested)
		p.mu.Lock()
		defer p.mu.Unlock()
		res.Tested += tested
		if len(found) > 0 {
			res.Solutions = append(res.Solutions, found...)
			if opt.MaxSolutions > 0 && len(res.Solutions) >= opt.MaxSolutions {
				p.stopped = true
			}
		}
	}

	err = p.run(ctx, func() walkFunc { return newWalk(p.errCh, report) })
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	res.Exhausted = p.exhausted() && ctx.Err() == nil
	return res, ctx.Err()
}
