package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"keysearch/internal/jobs"
	"keysearch/internal/netproto"
	"keysearch/internal/telemetry"
)

// jobsFlags hold the -jobs mode configuration (see runJobs).
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

// runJobs is keymaster's multi-tenant service mode: instead of driving
// one search to completion, it opens the WAL-backed job store, builds an
// executor fleet — local executors plus, with -jobs-fleet, keyworker TCP
// processes wrapped in netproto.Executor — and serves the job API on the
// listen address until SIGTERM/SIGINT. Shutdown is graceful: admission
// stops, in-flight leases drain to their chunk boundary and checkpoint,
// the WAL flushes — bounded by -jobs-drain, after which leases are cut
// loose (their intervals stay in the durable remaining set).
func runJobs(listen, statusAddr string, jf jobsFlags, mopts netproto.MasterOptions, reg *telemetry.Registry) error {
	weights, err := parseWeights(jf.weights)
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	execs := make([]jobs.Executor, 0, jf.execs+jf.fleet)
	for i := 0; i < jf.execs; i++ {
		execs = append(execs, jobs.NewLocalExecutor(fmt.Sprintf("local-%d", i), jf.threads))
	}
	if jf.fleet > 0 {
		master, err := netproto.NewMaster(jf.fleetAddr, mopts)
		if err != nil {
			store.Close()
			return err
		}
		defer master.Close()
		fmt.Printf("fleet: listening on %s, waiting for %d keyworker(s)\n", master.Addr(), jf.fleet)
		remote, err := master.AcceptWorkers(ctx, jf.fleet)
		if err != nil {
			store.Close()
			return err
		}
		for _, w := range remote {
			fmt.Printf("fleet: worker connected: %s\n", w.Name())
			execs = append(execs, netproto.NewExecutor(w))
		}
	}
	svc := jobs.NewService(store, execs, jobs.Options{
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
	})

	if err := svc.Start(ctx); err != nil {
		store.Close()
		return err
	}
	fmt.Printf("job service: %d job(s) recovered, executor shares %v\n",
		len(svc.List("")), svc.Shares())

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
	fmt.Printf("job API on http://%s/jobs\n", listen)

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
	fmt.Println("keymaster: job service drained cleanly")
	fmt.Println("final:", telemetry.StatusLine(reg.Snapshot()))
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
