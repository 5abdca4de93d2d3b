// Command keyworker is a cluster worker: it dials a keymaster and serves
// tune/search requests on the local CPU cores until the master
// disconnects. Job specs arrive over the wire per call (protocol v2's
// spec table), so one worker serves any number of jobs — including every
// tenant of a keymaster -jobs service. With -reconnect it re-dials after
// transient failures, re-registering under the same name so the master
// hands it back its place in the cluster.
//
// Usage:
//
//	keyworker -master 127.0.0.1:9031 -name node-B -threads 8 -reconnect
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"keysearch/internal/hash/md5x"
	"keysearch/internal/hash/sha1x"
	"keysearch/internal/netproto"
	"keysearch/internal/telemetry"
)

func main() {
	var (
		master      = flag.String("master", "127.0.0.1:9031", "master address")
		name        = flag.String("name", hostnameDefault(), "worker name")
		threads     = flag.Int("threads", 0, "goroutines (0 = all cores)")
		reconnect   = flag.Bool("reconnect", false, "re-dial the master after transient failures")
		attempts    = flag.Int("reconnect-attempts", 8, "consecutive failed dials before giving up")
		statusEvery = flag.Duration("status-every", 0, "log a one-line telemetry status at this interval (0 disables)")
		pbatch      = flag.Uint64("progress-batch", 0, "keys a search thread claims at a time: progress marks, steal boundaries and cancellation land on multiples of it (0 = at most 16384, less when a lease is short enough that every thread should still get a share)")
		throttle    = flag.Duration("throttle", 0, "park each search thread this long after every batch it completes — fakes a straggler for steal rehearsals (0 disables)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	reg := telemetry.NewRegistry()
	if *statusEvery > 0 {
		stopLog := telemetry.StartLogger(ctx, reg, *statusEvery, func(line string) {
			fmt.Println("status:", line)
		})
		defer stopLog()
	}

	// The MD5 and SHA1 kernels run ≈ 6× and ≈ 4× faster with AVX2 than
	// without, so a slow worker in a fleet is visible from its first line.
	fmt.Printf("worker %s connecting to %s (md5 screen %s, sha1 screen %s)\n", *name, *master, md5x.ScreenKernel(), sha1x.ScreenKernel())
	cfg := netproto.WorkerConfig{
		Name:          *name,
		Workers:       *threads,
		Telemetry:     reg,
		ProgressBatch: *pbatch,
		Throttle:      *throttle,
	}
	var err error
	if *reconnect {
		err = netproto.DialRetry(ctx, *master, cfg, netproto.RetryPolicy{
			MaxAttempts: *attempts,
			BaseDelay:   200 * time.Millisecond,
			MaxDelay:    5 * time.Second,
		})
	} else {
		err = netproto.Dial(ctx, *master, cfg)
	}
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "keyworker:", err)
		os.Exit(1)
	}
	fmt.Println("final:", telemetry.StatusLine(reg.Snapshot()))
	fmt.Println("master disconnected; done")
}

func hostnameDefault() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}
