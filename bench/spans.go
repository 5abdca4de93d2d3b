package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// span is one lease as the job service's executor loop saw it: the
// wall time of the jobs.Executor.Search call and, inside it, the search
// time the worker itself reported. jobs.Executor.Search carries no
// lease ID, so a lease is identified by its job's target and interval.
type span struct {
	Seq      int    `json:"seq"`
	Executor string `json:"executor"`
	Target   string `json:"target"` // Spec.Target, or the first of Spec.Targets
	Start    uint64 `json:"iv_start"`
	End      uint64 `json:"iv_end"`
	// BeginNS and EndNS are nanoseconds since the span log was created.
	BeginNS int64 `json:"begin_ns"`
	EndNS   int64 `json:"end_ns"`
	// SearchNS is dispatch.Report.Elapsed (K_search); EndNS-BeginNS minus
	// it is what the call spent outside the search (K_scatter+K_gather).
	SearchNS int64  `json:"search_ns"`
	Tested   uint64 `json:"tested"`
	Err      string `json:"err,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// tracing switched off: wrap returns the executor untouched.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// reset drops what set-up and warm-up recorded.
func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = l.spans[:0]
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

func (l *spanLog) wrap(ex jobs.Executor) jobs.Executor {
	if l == nil {
		return ex
	}
	return &tracedExecutor{inner: ex, log: l}
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedExecutor is the timing decorator around every
// jobs.Executor.Search call. It deliberately does not implement
// jobs.StealExecutor: every workload runs with stealing off.
type tracedExecutor struct {
	inner jobs.Executor
	log   *spanLog
}

func (t *tracedExecutor) Name() string { return t.inner.Name() }

func (t *tracedExecutor) Tune(ctx context.Context) (core.Tuning, error) { return t.inner.Tune(ctx) }

func (t *tracedExecutor) Search(ctx context.Context, spec jobs.Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	begin := time.Since(t.log.epoch)
	rep, err := t.inner.Search(ctx, spec, iv)
	end := time.Since(t.log.epoch)

	s := span{Executor: t.inner.Name(), Target: spec.Target, BeginNS: begin.Nanoseconds(), EndNS: end.Nanoseconds()}
	if s.Target == "" && len(spec.Targets) > 0 {
		s.Target = spec.Targets[0]
	}
	if iv.Start.IsUint64() && iv.End.IsUint64() {
		s.Start, s.End = iv.Start.Uint64(), iv.End.Uint64()
	}
	if rep != nil {
		s.SearchNS, s.Tested = rep.Elapsed.Nanoseconds(), rep.Tested
	}
	if err != nil {
		s.Err = err.Error()
	}
	t.log.mu.Lock()
	s.Seq = len(t.log.spans)
	t.log.spans = append(t.log.spans, s)
	t.log.mu.Unlock()
	return rep, err
}

// spanTotals are the sums the per-layer metrics are built from.
type spanTotals struct {
	leases           int
	tested           uint64
	callNS, searchNS int64
}

func totals(spans []span) spanTotals {
	var t spanTotals
	for _, s := range spans {
		t.leases++
		t.tested += s.Tested
		t.callNS += s.EndNS - s.BeginNS
		t.searchNS += s.SearchNS
	}
	return t
}
