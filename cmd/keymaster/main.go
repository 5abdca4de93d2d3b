// Command keymaster is the cluster master: it listens for keyworker
// processes, registers the cracking job's spec on each connection, runs
// the tuning step, balances interval sizes to measured throughputs and
// dispatches until the digest is cracked — the coarse-grain half of the
// paper's pattern over real TCP.
//
// Usage:
//
//	keymaster -listen :9031 -workers 2 \
//	    -alg md5 -hash 900150983cd24fb0d6963f7d28e17f72 \
//	    -charset abcdefghijklmnopqrstuvwxyz -min 1 -max 4
//
// With -jobs it instead runs the multi-tenant job service: a WAL-backed
// job store, a fair-share scheduler over an executor fleet, and the
// HTTP job API on -listen (see cmd/keyjob for the client). The fleet is
// local executors (-jobs-execs), keyworker TCP processes (-jobs-fleet /
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
	"encoding/hex"
	"flag"
	"fmt"
	"math/big"
	"net/http"
	_ "net/http/pprof" // registered on the -status mux for live profiling
	"os"
	"os/signal"
	"time"

	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
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
	var (
		listen  = flag.String("listen", "127.0.0.1:9031", "address to listen on")
		nworker = flag.Int("workers", 1, "number of workers to wait for")
		algName = flag.String("alg", "md5", "hash algorithm: md5 or sha1")
		hashHex = flag.String("hash", "", "hex digest to invert (required)")
		charset = flag.String("charset", keyspace.Lower.String(), "candidate charset")
		minLen  = flag.Int("min", 1, "minimum key length")
		maxLen  = flag.Int("max", 5, "maximum key length")
		all     = flag.Bool("all", false, "exhaust the space instead of stopping at the first hit")
		cpPath  = flag.String("checkpoint", "", "checkpoint file: saved after every chunk, resumed from if present")

		heartbeat = flag.Duration("heartbeat", 2*time.Second, "ping interval while a call is in flight (0 disables; the library sentinel is exactly -1, other negatives are rejected)")
		detect    = flag.Duration("failure-detect", 0, "silence after which a worker is declared dead (0 = 4x heartbeat)")
		retries   = flag.Int("retries", 3, "attempts per worker call before requeuing its interval")
		maxChunk  = flag.Uint64("max-chunk", 0, "cap per-worker chunk size; bounds work lost to one failure (0 = no cap)")

		statusAddr  = flag.String("status", "", "serve /status (telemetry JSON), /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:9032)")
		statusEvery = flag.Duration("status-every", 0, "log a one-line telemetry status at this interval (0 disables)")

		jf jobsFlags
	)
	flag.StringVar(&jf.dir, "jobs", "", "run the multi-tenant job service backed by this state directory (WAL + snapshots); serves the job API on -listen instead of dispatching one search")
	flag.IntVar(&jf.execs, "jobs-execs", 2, "local executors in the fleet (jobs mode)")
	flag.IntVar(&jf.threads, "jobs-threads", 0, "goroutines per executor, 0 = NumCPU (jobs mode)")
	flag.IntVar(&jf.maxRunning, "jobs-max-running", 0, "admission cap on concurrently running jobs, 0 = default (jobs mode)")
	flag.IntVar(&jf.quota, "jobs-quota", 0, "per-tenant cap on concurrently running jobs, 0 = default (jobs mode)")
	flag.StringVar(&jf.weights, "jobs-weights", "", "fair-share weights, e.g. alice=3,bob=1 (jobs mode)")
	flag.Float64Var(&jf.leaseScale, "jobs-lease-scale", 0, "multiplier on the balance-rule lease size (jobs mode)")
	flag.Uint64Var(&jf.maxLease, "jobs-max-lease", 0, "cap on lease size in keys, 0 = uncapped (jobs mode)")
	flag.DurationVar(&jf.drain, "jobs-drain", 30*time.Second, "graceful-shutdown drain deadline (jobs mode)")
	flag.BoolVar(&jf.noSync, "jobs-no-sync", false, "skip fsync on WAL appends; faster, loses the last commits on power loss (jobs mode)")
	flag.IntVar(&jf.fleet, "jobs-fleet", 0, "accept this many keyworker TCP processes into the executor fleet (jobs mode)")
	flag.StringVar(&jf.fleetAddr, "jobs-fleet-listen", "127.0.0.1:9031", "address the fleet master listens on for keyworkers (jobs mode)")
	flag.IntVar(&jf.shards, "jobs-shards", 0, "run the job service as this many consistent-hash shards behind a router (jobs mode; 0 = unsharded)")
	flag.BoolVar(&jf.replicate, "jobs-replicate", false, "stream each shard's WAL to a warm in-process follower, promotion-ready (requires -jobs-shards)")
	flag.BoolVar(&jf.steal, "steal", false, "let idle executors steal the tail of a straggler's in-flight lease over the live shrink handshake (jobs mode; jobs opt in per spec)")
	flag.Uint64Var(&jf.minSteal, "min-steal", 0, "smallest tail worth stealing in keys; a victim must have at least twice this remaining (jobs mode; 0 = 4096)")
	flag.DurationVar(&jf.progressEvery, "progress-every", 0, "progress-mark cadence requested from live searches, feeds straggler detection (jobs mode; 0 = 500ms)")
	flag.Parse()

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
		fmt.Printf("status endpoint on http://%s/status\n", *statusAddr)
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

	if jf.dir != "" {
		if jf.replicate && jf.shards <= 0 {
			fatal(fmt.Errorf("-jobs-replicate requires -jobs-shards"))
		}
		if jf.shards > 0 {
			if err := runShardedJobs(*listen, *statusAddr, jf, reg); err != nil {
				fatal(err)
			}
			return
		}
		if err := runJobs(*listen, *statusAddr, jf, mopts, reg); err != nil {
			fatal(err)
		}
		return
	}

	alg, err := cracker.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	target, err := hex.DecodeString(*hashHex)
	if err != nil || len(target) != alg.DigestSize() {
		fatal(fmt.Errorf("bad %s digest %q", alg, *hashHex))
	}

	spec := netproto.JobSpec{
		Algorithm: alg,
		Kind:      cracker.KernelOptimized,
		Target:    target,
		Charset:   *charset,
		MinLen:    *minLen,
		MaxLen:    *maxLen,
		Order:     keyspace.PrefixMajor,
	}
	job, err := spec.Build()
	if err != nil {
		fatal(err)
	}

	master, err := netproto.NewMaster(*listen, mopts)
	if err != nil {
		fatal(err)
	}
	defer master.Close()
	fmt.Printf("listening on %s, waiting for %d worker(s)\n", master.Addr(), *nworker)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *statusEvery > 0 {
		stopLog := telemetry.StartLogger(ctx, reg, *statusEvery, func(line string) {
			fmt.Println("status:", line)
		})
		defer stopLog()
	}

	workers, err := master.AcceptWorkers(ctx, *nworker)
	if err != nil {
		fatal(err)
	}
	for _, w := range workers {
		fmt.Printf("worker connected: %s\n", w.Name())
	}

	opts := dispatch.Options{
		MaxSolutions: 1,
		MaxChunk:     *maxChunk,
		Telemetry:    reg,
		OnRequeue: func(worker string, iv keyspace.Interval, cause error) {
			fmt.Printf("worker %s failed (%v); requeued %v keys\n",
				worker, cause, iv.Len())
		},
	}
	if *all {
		opts.MaxSolutions = 0
	}
	if *cpPath != "" {
		opts.Checkpoint = func(cp *dispatch.Checkpoint) {
			// Atomic write-temp+rename: a crash mid-save leaves the previous
			// good checkpoint, never a torn file.
			if err := dispatch.WriteCheckpointFile(*cpPath, cp); err != nil {
				fmt.Fprintln(os.Stderr, "keymaster: checkpoint save:", err)
			}
		}
	}
	d := dispatch.NewDispatcher("keymaster", opts, netproto.BindWorkers(spec, workers)...)

	start := time.Now()
	var rep *dispatch.Report
	if *cpPath != "" {
		if data, rerr := os.ReadFile(*cpPath); rerr == nil {
			cp, lerr := dispatch.LoadCheckpoint(data)
			if lerr != nil {
				fatal(lerr)
			}
			fmt.Printf("resuming from checkpoint: %v keys remaining\n", cp.RemainingKeys())
			rep, err = d.Resume(ctx, cp)
		}
	}
	if rep == nil && err == nil {
		fmt.Printf("tuning and dispatching over %v keys...\n", job.Space.Size())
		rep, err = d.Search(ctx, keyspace.Interval{Start: big.NewInt(0), End: job.Space.Size()})
	}
	if err != nil {
		fatal(err)
	}
	for _, f := range rep.Found {
		fmt.Printf("FOUND: %q\n", f)
	}
	if len(rep.Found) == 0 {
		fmt.Println("not found in the search space")
	}
	elapsed := time.Since(start)
	fmt.Printf("tested %d keys in %v (%.2f MKey/s aggregate)\n",
		rep.Tested, elapsed.Round(time.Millisecond),
		float64(rep.Tested)/elapsed.Seconds()/1e6)
	if rep.Requeues > 0 {
		fmt.Printf("requeues: %d incident(s), %d keys re-dispatched\n", rep.Requeues, rep.Retested)
	}
	fmt.Println("final:", telemetry.StatusLine(reg.Snapshot()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keymaster:", err)
	os.Exit(1)
}
