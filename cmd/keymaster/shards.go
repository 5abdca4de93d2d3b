package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"keysearch/internal/jobs"
	"keysearch/internal/shardplane"
	"keysearch/internal/telemetry"
)

// runShardedJobs is keymaster's sharded control-plane mode
// (-jobs-shards N): N independent job services, each with its own WAL
// under <dir>/shard-NN and its own executor fleet, behind a front-end
// router that serves the unchanged job API on -listen. Tenants are
// placed on shards by a consistent-hash ring; with -jobs-replicate each
// shard also streams its WAL to a warm in-process follower under
// <dir>/shard-NN-follower, kept promotion-ready (see GET /shards for
// the acked watermarks).
func runShardedJobs(listen, statusAddr string, jf jobsFlags, reg *telemetry.Registry) error {
	if jf.fleet > 0 {
		return errors.New("keymaster: -jobs-fleet is not supported with -jobs-shards; sharded mode runs local executors only")
	}
	weights, err := parseWeights(jf.weights)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type follower struct {
		rep  *jobs.Replica
		conn net.Conn
	}
	shards := make([]*shardplane.Shard, 0, jf.shards)
	var followers []follower
	closeAll := func() {
		for _, sh := range shards {
			sh.Shutdown(context.Background())
		}
		for _, fo := range followers {
			fo.conn.Close()
			fo.rep.Close()
		}
	}
	for i := 0; i < jf.shards; i++ {
		name := fmt.Sprintf("s%d", i)
		execs := make([]jobs.Executor, jf.execs)
		for e := range execs {
			execs[e] = jobs.NewLocalExecutor(fmt.Sprintf("%s-local-%d", name, e), jf.threads)
		}
		sh, err := shardplane.OpenShard(name, filepath.Join(jf.dir, fmt.Sprintf("shard-%02d", i)), execs, shardplane.ShardOptions{
			Telemetry: reg,
			Store:     jobs.StoreOptions{NoSync: jf.noSync},
			Jobs: jobs.Options{
				Sched: jobs.SchedOptions{
					MaxRunning:  jf.maxRunning,
					TenantQuota: jf.quota,
					Weights:     weights,
				},
				LeaseScale: jf.leaseScale,
				MaxLease:   jf.maxLease,
			},
			Replicate: jf.replicate,
		})
		if err != nil {
			closeAll()
			return fmt.Errorf("shard %s: %w", name, err)
		}
		shards = append(shards, sh)
		if jf.replicate {
			rep, err := jobs.OpenReplica(filepath.Join(jf.dir, fmt.Sprintf("shard-%02d-follower", i)), jobs.ReplicaOptions{NoSync: jf.noSync})
			if err != nil {
				closeAll()
				return fmt.Errorf("shard %s follower: %w", name, err)
			}
			fol := shardplane.NewFollower(rep)
			a, b := net.Pipe()
			followers = append(followers, follower{rep: rep, conn: b})
			go sh.ServeFollower(a)
			go fol.Run(b)
		}
		if err := sh.Start(ctx); err != nil {
			closeAll()
			return fmt.Errorf("shard %s: %w", name, err)
		}
		fmt.Printf("shard %s: %d job(s) recovered\n", name, len(sh.Service().List("")))
	}

	plane, err := shardplane.NewPlane(shards, shardplane.RingOptions{})
	if err != nil {
		closeAll()
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", shardplane.NewRouter(plane, reg).Handler())
	if statusAddr == "" {
		mux.Handle("/status", telemetry.Handler(reg))
	}
	srv := newHTTPServer(listen, mux)
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	fmt.Printf("sharded job API on http://%s/jobs (%d shards, ring %s, replicate=%v)\n",
		listen, jf.shards, plane.Ring().ID(), jf.replicate)

	select {
	case err := <-errc:
		closeAll()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "keymaster: draining %d shard(s) (deadline %v)...\n", len(shards), jf.drain)
	dctx, cancel := context.WithTimeout(context.Background(), jf.drain)
	defer cancel()
	srv.Shutdown(dctx)
	var firstErr error
	for _, sh := range shards {
		if err := sh.Shutdown(dctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("drain shard %s: %w", sh.Name(), err)
		}
	}
	for _, fo := range followers {
		fo.conn.Close()
		fo.rep.Close()
	}
	if firstErr != nil {
		return firstErr
	}
	fmt.Println("keymaster: sharded job service drained cleanly")
	fmt.Println("final:", telemetry.StatusLine(reg.Snapshot()))
	return nil
}
