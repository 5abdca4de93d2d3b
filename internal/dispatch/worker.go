// Package dispatch implements the coarse-grain half of the paper's
// pattern (Section III): a hierarchical dispatcher that tunes its workers,
// balances identifier intervals proportionally to measured throughput
// (N_j = N_max · X_j / X_max), scatters work, gathers results, survives
// worker failures by reclaiming unfinished intervals, and composes into
// trees (a Dispatcher is itself a Worker).
//
// Two executions are provided: the concurrent dispatcher in this file and
// dispatcher.go drives real workers (in-process CPU crackers, TCP-attached
// nodes) in wall-clock time; cluster.go drives modeled GPU nodes in
// virtual time on the discrete-event engine, which is how the paper-scale
// Table IX network is reproduced.
package dispatch

import (
	"context"
	"fmt"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/keyspace"
)

// Report accumulates the outcome of a (sub)search.
type Report struct {
	// Found lists matching keys.
	Found [][]byte
	// Tested is the number of candidates whose results were gathered.
	// Failed workers report nothing, so Tested is exact coverage: at the
	// end of an exhaustive search it equals the interval size even when
	// chunks were requeued and re-searched.
	Tested uint64
	// Retested counts identifiers that were dispatched more than once —
	// the chunks requeued after worker deaths, whose first (partial,
	// never gathered) pass is re-run by a survivor. Kept separate from
	// Tested so duplicated work is visible instead of inflating coverage.
	Retested uint64
	// Requeues counts requeue incidents (workers declared dead
	// mid-chunk).
	Requeues int
	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
}

// Throughput returns the observed rate in keys/s.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Tested) / r.Elapsed.Seconds()
}

// Worker is a computing resource the dispatcher can drive: a local CPU
// engine, a simulated GPU, a TCP-attached remote node, or another
// Dispatcher (hierarchical composition).
type Worker interface {
	// Name identifies the worker in diagnostics.
	Name() string
	// Tune runs the paper's tuning step: estimate the worker's peak
	// throughput X_j and minimum efficient batch n_j.
	Tune(ctx context.Context) (core.Tuning, error)
	// Search evaluates the candidates of the identifier interval and
	// returns what it found. Implementations must test every identifier
	// of the interval unless the context is cancelled. On error the
	// dispatcher assumes nothing of the interval was searched and
	// requeues the whole chunk, so a partial Report must never
	// accompany a non-nil error.
	Search(ctx context.Context, iv keyspace.Interval) (*Report, error)
}

// FuncWorker adapts closures to the Worker interface (used heavily by
// tests and the simulated-GPU adapter).
type FuncWorker struct {
	WorkerName string
	TuneFunc   func(ctx context.Context) (core.Tuning, error)
	SearchFunc func(ctx context.Context, iv keyspace.Interval) (*Report, error)
}

// Name identifies the worker.
func (w *FuncWorker) Name() string { return w.WorkerName }

// Tune delegates to TuneFunc.
func (w *FuncWorker) Tune(ctx context.Context) (core.Tuning, error) { return w.TuneFunc(ctx) }

// Search delegates to SearchFunc.
func (w *FuncWorker) Search(ctx context.Context, iv keyspace.Interval) (*Report, error) {
	return w.SearchFunc(ctx, iv)
}

// errNoWorkers reports a search that ran out of live workers.
type errNoWorkers struct {
	name      string
	remaining uint64
	causes    []error
}

func (e *errNoWorkers) Error() string {
	return fmt.Sprintf("dispatch %s: all workers failed with %d identifiers unsearched (first cause: %v)",
		e.name, e.remaining, firstErr(e.causes))
}

// Unwrap exposes the per-worker causes to errors.Is/As.
func (e *errNoWorkers) Unwrap() []error { return e.causes }

func firstErr(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}
