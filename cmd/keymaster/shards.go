package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"

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
func runShardedJobs(ctx context.Context, out io.Writer, listen, statusAddr string, jf jobsFlags, reg *telemetry.Registry) error {
	// A shard's executors are local, and a local executor is neither a TCP
	// worker nor a steal victim: refuse the flags that only mean something
	// for those rather than drop them.
	if jf.fleet > 0 || jf.steal || jf.minSteal != 0 || jf.progressEvery != 0 {
		return errors.New("-jobs-fleet, -steal, -min-steal and -progress-every are not supported with -jobs-shards; sharded mode runs local executors only")
	}
	opts, err := jf.options(reg)
	if err != nil {
		return err
	}

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
		sh, err := shardplane.OpenShard(name, filepath.Join(jf.dir, fmt.Sprintf("shard-%02d", i)), jf.localExecutors(name+"-"), shardplane.ShardOptions{
			Telemetry: reg,
			Store:     jobs.StoreOptions{NoSync: jf.noSync},
			Jobs:      opts,
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
		fmt.Fprintf(out, "shard %s: %d job(s) recovered\n", name, sh.Service().Count())
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
	fmt.Fprintf(out, "sharded job API on http://%s/jobs (%d shards, ring %s, replicate=%v)\n",
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
	fmt.Fprintln(out, "keymaster: sharded job service drained cleanly")
	fmt.Fprintln(out, "final:", telemetry.StatusLine(reg.Snapshot()))
	return nil
}
