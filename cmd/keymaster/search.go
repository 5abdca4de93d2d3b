package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"keysearch/internal/jobs"
	"keysearch/internal/netproto"
	"keysearch/internal/telemetry"
)

// runSearch is keymaster without -jobs: the search is the one job of a
// private job service whose fleet is the -workers keyworkers. The job's
// store is -checkpoint DIR (jf.dir) — an fsynced WAL, so a master
// restarted on the same directory finds the job RUNNING and resumes it
// through ordinary crash recovery — or, without the flag, an unsynced
// temporary directory removed on exit. It follows the job to a terminal
// state, prints the result and shuts the service down.
func runSearch(ctx context.Context, out io.Writer, spec jobs.Spec, jf jobsFlags, mopts netproto.MasterOptions, reg *telemetry.Registry) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	opts, err := jf.options(reg)
	if err != nil {
		return err
	}
	if jf.dir == "" {
		if jf.dir, err = os.MkdirTemp("", "keymaster-"); err != nil {
			return err
		}
		defer os.RemoveAll(jf.dir)
		jf.noSync = true
	}
	store, err := jobs.Open(jf.dir, jobs.StoreOptions{NoSync: jf.noSync, Telemetry: reg})
	if err != nil {
		return err
	}
	defer store.Close() // a no-op once the service's Shutdown has closed it

	// Recover the directory's job before waiting for anyone: a log that is
	// damaged (Open) or belongs to another search is refused up front.
	var job jobs.Job
	switch held := store.List(""); {
	case len(held) == 0:
	case len(held) == 1 && sameSearch(held[0].Spec, spec):
		job = held[0]
	default:
		return fmt.Errorf("%s holds a different search (%d job(s), first %s over %s keys); use a fresh -checkpoint directory",
			jf.dir, len(held), held[0].ID, held[0].Space)
	}

	execs, closeFleet, err := jf.buildFleet(ctx, out, mopts)
	if err != nil {
		return err
	}
	defer closeFleet()
	svc := jobs.NewService(store, execs, opts)
	if job.ID != "" {
		fmt.Fprintf(out, "resuming from checkpoint: %s keys remaining\n", job.Remaining)
	} else {
		if job, err = svc.Submit("keymaster", 0, spec); err != nil {
			return err
		}
		fmt.Fprintf(out, "tuning and dispatching over %s keys...\n", job.Space)
	}
	// Follow the job on its event stream, subscribed before the service
	// starts so that no event precedes it; the hub never drops a state
	// event, so the terminal one arrives. The search also ends when the
	// last keyworker has been retired, which leaves the job RUNNING with
	// nobody to lease it to.
	events, stopWatch := svc.Watch(job.ID)
	defer stopWatch()
	start, tested0 := time.Now(), job.Tested
	if err := svc.Start(ctx); err != nil {
		return err
	}
follow:
	for !job.Done() {
		select {
		case ev, ok := <-events:
			if !ok {
				break follow
			}
			job = ev.Job
		case <-svc.ExecutorsDone():
			break follow
		case <-ctx.Done():
			break follow
		}
	}
	elapsed := time.Since(start)
	// A lost fleet or an interrupt ends the watch between events: report
	// the job as the store has it.
	if j, err := svc.Get(job.ID); err == nil {
		job = j
	}
	// Taken before the shutdown below cuts in-flight leases loose, which
	// the service counts as requeues too.
	final := reg.Snapshot()

	// Nothing is worth draining: a finished job's in-flight leases are
	// moot, and an interrupted one's are still in its remaining set.
	dctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Shutdown(dctx); err != nil {
		return err
	}
	switch {
	case !job.Done() && ctx.Err() != nil:
		return fmt.Errorf("interrupted with %s of %s keys remaining: %w", job.Remaining, job.Space, ctx.Err())
	case !job.Done():
		return fmt.Errorf("every keyworker lost with %s of %s keys remaining", job.Remaining, job.Space)
	case job.State != jobs.StateDone:
		return fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Reason)
	}
	for _, f := range job.Found {
		fmt.Fprintf(out, "FOUND: %q\n", f)
	}
	if len(job.Found) == 0 {
		fmt.Fprintln(out, "not found in the search space")
	}
	fmt.Fprintf(out, "tested %d keys in %v (%.2f MKey/s aggregate)\n",
		job.Tested, elapsed.Round(time.Millisecond),
		float64(job.Tested-tested0)/elapsed.Seconds()/1e6)
	// Incidents as StatusLine counts them: failed leases and expired ones.
	if n := final.Counters[telemetry.MetricJobsRequeues] + final.Counters[telemetry.MetricJobsExpired]; n > 0 {
		fmt.Fprintf(out, "requeues: %d incident(s), %d keys re-dispatched\n", n, final.Counters[telemetry.MetricJobsRequeuedKeys])
	}
	fmt.Fprintln(out, "final:", telemetry.StatusLine(final))
	return nil
}

// sameSearch reports whether two specs describe the same search: every
// field but Steal, which changes who searches a key, not which keys.
func sameSearch(a, b jobs.Spec) bool {
	return a.Algorithm == b.Algorithm && a.Target == b.Target && slices.Equal(a.Targets, b.Targets) &&
		a.Charset == b.Charset && a.MinLen == b.MinLen && a.MaxLen == b.MaxLen && a.MaxSolutions == b.MaxSolutions
}
