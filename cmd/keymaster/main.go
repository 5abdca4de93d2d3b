// Command keymaster is the cluster master. Every mode runs the same job
// service (internal/jobs): a WAL-backed job store, a scheduler that tunes
// the executor fleet, balances lease sizes to measured throughputs and
// requeues a dead node's interval — the coarse-grain half of the paper's
// pattern, over real TCP when the executors are keyworker processes.
//
// Without -jobs it cracks one digest: it waits for -workers keyworkers,
// runs the search as the single job of a private service, prints the
// result and exits. With -checkpoint DIR the job's store lives in DIR, so
// a master restarted with the same flags resumes the search where the
// log left it (and refuses a directory that holds a different search):
//
//	keymaster -listen :9031 -workers 2 \
//	    -alg md5 -hash 900150983cd24fb0d6963f7d28e17f72 \
//	    -charset abcdefghijklmnopqrstuvwxyz -min 1 -max 4
//
// With -jobs it keeps the service up for many tenants' jobs and serves
// the HTTP job API on -listen (see cmd/keyjob for the client). The fleet
// is local executors (-jobs-execs), keyworker TCP processes (-jobs-fleet /
// -jobs-fleet-listen; protocol v2 lets one worker serve every tenant's
// jobs), or a mix:
//
//	keymaster -jobs /var/lib/keysearch -listen 127.0.0.1:9040 \
//	    -jobs-weights alice=3,bob=1 \
//	    -jobs-fleet 2 -jobs-fleet-listen 127.0.0.1:9031
//
// With -jobs-shards N the job service runs as a sharded control plane:
// N independent services (one WAL each, under <dir>/shard-NN) behind a
// consistent-hash router serving the same API, and -jobs-replicate
// keeps a warm promotion-ready follower per shard:
//
//	keymaster -jobs /var/lib/keysearch -listen 127.0.0.1:9040 \
//	    -jobs-shards 3 -jobs-replicate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registered on the -status mux for live profiling
	"os"
	"os/signal"
	"syscall"
	"time"

	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/netproto"
	"keysearch/internal/telemetry"
)

// newHTTPServer bounds slow clients the same way on every listener: a
// peer gets 10 s to send its request headers and an idle keep-alive
// connection is closed after 2 min. No read or write timeout — job
// submissions can be tens of megabytes and SSE streams are long-lived.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "keymaster:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, picks the mode and returns
// when the search is over or, in the service modes, when ctx is cancelled
// and the service has drained.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("keymaster", flag.ExitOnError)
	var (
		listen  = fs.String("listen", "127.0.0.1:9031", "address to listen on")
		nworker = fs.Int("workers", 1, "number of workers to wait for")
		all     = fs.Bool("all", false, "exhaust the space instead of stopping at the first hit")
		cpDir   = fs.String("checkpoint", "", "state directory for the search (fsynced WAL): progress is logged after every chunk and a restart with the same flags resumes from it")

		heartbeat = fs.Duration("heartbeat", 2*time.Second, "ping interval while a call is in flight (0 disables; the library sentinel is exactly -1, other negatives are rejected)")
		detect    = fs.Duration("failure-detect", 0, "silence after which a worker is declared dead (0 = 4x heartbeat)")
		retries   = fs.Int("retries", 3, "attempts per worker call before requeuing its interval")
		maxChunk  = fs.Uint64("max-chunk", 0, "cap per-worker chunk size; bounds work lost to one failure (0 = no cap)")

		statusAddr  = fs.String("status", "", "serve /status (telemetry JSON), /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:9032)")
		statusEvery = fs.Duration("status-every", 0, "log a one-line telemetry status at this interval (0 disables)")

		spec jobs.Spec // the single search, straight from its flags
		jf   jobsFlags
	)
	fs.StringVar(&spec.Algorithm, "alg", "md5", "hash algorithm: md5 or sha1")
	fs.StringVar(&spec.Target, "hash", "", "hex digest to invert (required)")
	fs.StringVar(&spec.Charset, "charset", keyspace.Lower.String(), "candidate charset")
	fs.IntVar(&spec.MinLen, "min", 1, "minimum key length")
	fs.IntVar(&spec.MaxLen, "max", 5, "maximum key length")
	fs.StringVar(&jf.dir, "jobs", "", "run the multi-tenant job service backed by this state directory (WAL + snapshots); serves the job API on -listen instead of dispatching one search")
	fs.IntVar(&jf.execs, "jobs-execs", 2, "local executors in the fleet (jobs mode)")
	fs.IntVar(&jf.threads, "jobs-threads", 0, "goroutines per executor, 0 = NumCPU (jobs mode)")
	fs.IntVar(&jf.maxRunning, "jobs-max-running", 0, "admission cap on concurrently running jobs, 0 = default (jobs mode)")
	fs.IntVar(&jf.quota, "jobs-quota", 0, "per-tenant cap on concurrently running jobs, 0 = default (jobs mode)")
	fs.StringVar(&jf.weights, "jobs-weights", "", "fair-share weights, e.g. alice=3,bob=1 (jobs mode)")
	fs.Float64Var(&jf.leaseScale, "jobs-lease-scale", 0, "multiplier on the balance-rule lease size (jobs mode)")
	fs.Uint64Var(&jf.maxLease, "jobs-max-lease", 0, "cap on lease size in keys, 0 = uncapped (jobs mode)")
	fs.DurationVar(&jf.drain, "jobs-drain", 30*time.Second, "graceful-shutdown drain deadline (jobs mode)")
	fs.BoolVar(&jf.noSync, "jobs-no-sync", false, "skip fsync on WAL appends; faster, loses the last commits on power loss (jobs mode)")
	fs.IntVar(&jf.fleet, "jobs-fleet", 0, "accept this many keyworker TCP processes into the executor fleet (jobs mode)")
	fs.StringVar(&jf.fleetAddr, "jobs-fleet-listen", "127.0.0.1:9031", "address the fleet master listens on for keyworkers (jobs mode)")
	fs.IntVar(&jf.shards, "jobs-shards", 0, "run the job service as this many consistent-hash shards behind a router (jobs mode; 0 = unsharded)")
	fs.BoolVar(&jf.replicate, "jobs-replicate", false, "stream each shard's WAL to a warm in-process follower, promotion-ready (requires -jobs-shards)")
	fs.BoolVar(&jf.steal, "steal", false, "let idle keyworkers steal the tail of a straggler's in-flight lease over the live shrink handshake (the single search opts in; -jobs jobs opt in per spec; not with -jobs-shards)")
	fs.Uint64Var(&jf.minSteal, "min-steal", 0, "smallest tail worth stealing in keys; a victim must have at least twice this remaining (0 = 4096)")
	fs.DurationVar(&jf.progressEvery, "progress-every", 0, "progress-mark cadence requested from live searches, feeds straggler detection (0 = 500ms)")
	fs.Parse(args) // ExitOnError

	reg := telemetry.NewRegistry()
	if *statusAddr != "" {
		telemetry.PublishExpvar("keymaster", reg)
		mux := http.NewServeMux()
		mux.Handle("/status", telemetry.Handler(reg))
		mux.Handle("/debug/", http.DefaultServeMux) // expvar + pprof
		srv := newHTTPServer(*statusAddr, mux)
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "keymaster: status server:", err)
			}
		}()
		fmt.Fprintf(stdout, "status endpoint on http://%s/status\n", *statusAddr)
	}

	mopts := netproto.MasterOptions{
		Heartbeat:        *heartbeat,
		HeartbeatTimeout: *detect,
		Retry:            netproto.RetryPolicy{MaxAttempts: *retries},
		Telemetry:        reg,
	}
	if *heartbeat == 0 {
		mopts.Heartbeat = -1
	}

	switch {
	case jf.dir == "":
		if *statusEvery > 0 {
			defer telemetry.StartLogger(ctx, reg, *statusEvery, func(line string) {
				fmt.Fprintln(stdout, "status:", line)
			})()
		}
		// One search is one job of the same service: -checkpoint is its
		// store, the -workers keyworkers on -listen its whole fleet.
		jf.dir, jf.execs, jf.fleet, jf.fleetAddr, jf.maxLease = *cpDir, 0, *nworker, *listen, *maxChunk
		spec.Steal = jf.steal
		if !*all {
			spec.MaxSolutions = 1
		}
		return runSearch(ctx, stdout, spec, jf, mopts, reg)
	case jf.shards > 0:
		return runShardedJobs(ctx, stdout, *listen, *statusAddr, jf, reg)
	case jf.replicate:
		return errors.New("-jobs-replicate requires -jobs-shards")
	default:
		return runJobs(ctx, stdout, *listen, *statusAddr, jf, mopts, reg)
	}
}
