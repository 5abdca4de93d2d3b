package dispatch

import (
	"context"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/keyspace"
	"keysearch/internal/sim"
)

// LocalWorker runs a cracking job on local goroutines — the in-process
// leaf node of a dispatch tree. Its Tune actually searches increasing
// batches of the job's space and fits the latency/throughput model, the
// honest version of the paper's tuning step.
type LocalWorker struct {
	name    string
	job     *cracker.Job
	workers int
}

// NewLocalWorker wraps a cracking job as a dispatch worker. workers is the
// goroutine count (0 = NumCPU).
func NewLocalWorker(name string, job *cracker.Job, workers int) *LocalWorker {
	return &LocalWorker{name: name, job: job, workers: workers}
}

// Name identifies the worker.
func (w *LocalWorker) Name() string { return w.name }

// Tune benchmarks the local engine with doubling batches.
func (w *LocalWorker) Tune(ctx context.Context) (core.Tuning, error) {
	return cracker.Tune(ctx, w.job, w.workers, 0)
}

// Search exhausts the interval, returning every match (the dispatcher
// layer owns early stopping).
func (w *LocalWorker) Search(ctx context.Context, iv keyspace.Interval) (*Report, error) {
	return SearchLocal(ctx, sim.Wall{}, w.job, iv, core.Options{Workers: w.workers})
}

// SearchLocal exhausts iv on the local engine and wraps the outcome as a
// Report timed on clk — the one leaf search under LocalWorker, the job
// service's local executor and the TCP worker. On error — including
// cancellation — no Report is returned: per the Worker contract the caller
// treats the whole interval as unsearched and requeues it.
func SearchLocal(ctx context.Context, clk sim.Clock, job *cracker.Job, iv keyspace.Interval, opt core.Options) (*Report, error) {
	start := clk.Now()
	res, err := cracker.CrackAll(ctx, job, iv, opt)
	if err != nil {
		return nil, err
	}
	return &Report{Found: res.Solutions, Tested: res.Tested, Elapsed: clk.Since(start)}, nil
}
