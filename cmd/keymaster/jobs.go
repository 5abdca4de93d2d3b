package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"keysearch/internal/jobs"
	"keysearch/internal/netproto"
	"keysearch/internal/telemetry"
)

// jobsFlags hold the service configuration every mode shares: the store
// directory, the fleet (see buildFleet) and what becomes jobs.Options
// (see options). The single-search mode fills the first two from its own
// flags.
type jobsFlags struct {
	dir        string
	execs      int
	threads    int
	maxRunning int
	quota      int
	weights    string
	leaseScale float64
	maxLease   uint64
	drain      time.Duration
	noSync     bool
	fleet      int
	fleetAddr  string
	shards     int
	replicate  bool

	steal         bool
	minSteal      uint64
	progressEvery time.Duration
}

// options is the one place keymaster's flags become jobs.Options: every
// mode runs the same service, so a flag either reaches it here or is
// refused by the mode that cannot honour it.
func (jf jobsFlags) options(reg *telemetry.Registry) (jobs.Options, error) {
	weights, err := parseWeights(jf.weights)
	if err != nil {
		return jobs.Options{}, err
	}
	return jobs.Options{
		Sched: jobs.SchedOptions{
			MaxRunning:  jf.maxRunning,
			TenantQuota: jf.quota,
			Weights:     weights,
		},
		LeaseScale: jf.leaseScale,
		MaxLease:   jf.maxLease,
		Telemetry:  reg,
		Steal: jobs.StealOptions{
			Enabled:       jf.steal,
			MinSteal:      jf.minSteal,
			ProgressEvery: jf.progressEvery,
		},
	}, nil
}

// localExecutors are one service's -jobs-execs CPU executors, named
// <prefix>local-N.
func (jf jobsFlags) localExecutors(prefix string) []jobs.Executor {
	execs := make([]jobs.Executor, jf.execs)
	for i := range execs {
		execs[i] = jobs.NewLocalExecutor(fmt.Sprintf("%slocal-%d", prefix, i), jf.threads)
	}
	return execs
}

// buildFleet assembles the executors a service leases to: the local ones
// and, with -jobs-fleet, that many keyworker TCP processes accepted on
// -jobs-fleet-listen and wrapped as netproto.Executors. The caller runs
// closeFleet when the service is down; it hangs up on the keyworkers.
func (jf jobsFlags) buildFleet(ctx context.Context, out io.Writer, mopts netproto.MasterOptions) (execs []jobs.Executor, closeFleet func(), err error) {
	execs = jf.localExecutors("")
	if jf.fleet <= 0 {
		return execs, func() {}, nil
	}
	master, err := netproto.NewMaster(jf.fleetAddr, mopts)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "listening on %s, waiting for %d keyworker(s)\n", master.Addr(), jf.fleet)
	workers, err := master.AcceptWorkers(ctx, jf.fleet)
	if err != nil {
		master.Close()
		return nil, nil, err
	}
	for _, w := range workers {
		fmt.Fprintf(out, "worker connected: %s\n", w.Name())
		execs = append(execs, netproto.NewExecutor(w))
	}
	return execs, func() { master.Close() }, nil
}

// runJobs is keymaster's multi-tenant service mode: instead of driving
// one search to completion, it opens the WAL-backed job store, builds an
// executor fleet — local executors plus, with -jobs-fleet, keyworker TCP
// processes wrapped in netproto.Executor — and serves the job API on the
// listen address until SIGTERM/SIGINT. Shutdown is graceful: admission
// stops, in-flight leases drain to their chunk boundary and checkpoint,
// the WAL flushes — bounded by -jobs-drain, after which leases are cut
// loose (their intervals stay in the durable remaining set).
func runJobs(ctx context.Context, out io.Writer, listen, statusAddr string, jf jobsFlags, mopts netproto.MasterOptions, reg *telemetry.Registry) error {
	opts, err := jf.options(reg)
	if err != nil {
		return err
	}
	store, err := jobs.Open(jf.dir, jobs.StoreOptions{
		NoSync:    jf.noSync,
		Telemetry: reg,
	})
	if err != nil {
		return err
	}
	execs, closeFleet, err := jf.buildFleet(ctx, out, mopts)
	if err != nil {
		store.Close()
		return err
	}
	defer closeFleet()
	svc := jobs.NewService(store, execs, opts)
	if err := svc.Start(ctx); err != nil {
		store.Close()
		return err
	}
	fmt.Fprintf(out, "job service: %d job(s) recovered, executor shares %v\n",
		svc.Count(), svc.Shares())

	mux := http.NewServeMux()
	mux.Handle("/", jobs.NewAPI(svc).Handler())
	if statusAddr == "" {
		// No separate status listener: mount telemetry beside the API.
		mux.Handle("/status", telemetry.Handler(reg))
	}
	srv := newHTTPServer(listen, mux)
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	fmt.Fprintf(out, "job API on http://%s/jobs\n", listen)

	select {
	case err := <-errc:
		svc.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "keymaster: draining (deadline %v)...\n", jf.drain)
	dctx, cancel := context.WithTimeout(context.Background(), jf.drain)
	defer cancel()
	srv.Shutdown(dctx)
	if err := svc.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(out, "keymaster: job service drained cleanly")
	fmt.Fprintln(out, "final:", telemetry.StatusLine(reg.Snapshot()))
	return nil
}

// parseWeights reads "alice=3,bob=1" into the fair-share weight map.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad weight %q (want tenant=weight)", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q: must be a positive number", part)
		}
		out[k] = w
	}
	return out, nil
}
