package dispatch

import (
	"context"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/keyspace"
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
	return cracker.Tune(ctx, w.job, w.workers, core.TuneOptions{Start: 4096, TargetEfficiency: 0.9})
}

// Search exhausts the interval, returning every match (the dispatcher
// layer owns early stopping). On error — including cancellation — no
// Report is returned: per the Worker contract the dispatcher treats the
// whole interval as unsearched and requeues it.
func (w *LocalWorker) Search(ctx context.Context, iv keyspace.Interval) (*Report, error) {
	start := time.Now()
	res, err := cracker.CrackAll(ctx, w.job, iv, core.Options{Workers: w.workers})
	if err != nil {
		return nil, err
	}
	return &Report{Found: res.Solutions, Tested: res.Tested, Elapsed: time.Since(start)}, nil
}
