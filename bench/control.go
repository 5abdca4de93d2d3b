package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// controlPlane times the calls a lease pays between two searches, one
// layer at a time and directly: WAL append, lease issue + commit,
// submit, the search RPC on loopback, and the HTTP API direct and
// through the router. Medians and tail percentiles are printed with
// their sample counts. scale shrinks the counts for the harness tests.
func controlPlane(ctx context.Context, root string, scale float64) (metrics, error) {
	dir, err := os.MkdirTemp(root, "control-")
	if err != nil {
		return nil, err
	}
	out := metrics{}
	n := func(calls int) int {
		if v := int(float64(calls) * scale); v > 5 {
			return v
		}
		return 5
	}
	for _, part := range []func(context.Context, string, func(int) int, metrics) error{
		walAppend, leaseCommit, searchRPC, httpCalls,
	} {
		if err := part(ctx, dir, n, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bigSpec is a job nobody finishes: 321 272 406 keys to lease from.
var bigSpec = jobs.Spec{
	Algorithm: "md5", Target: digestHex("md5", []byte("outside")),
	Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 1, MaxLen: 6,
}

// walAppend times Store.RecordCheckpoint, the record every committed
// lease appends, with the fsync on and off.
func walAppend(_ context.Context, dir string, n func(int) int, out metrics) error {
	for _, noSync := range []bool{false, true} {
		sub, calls := "wal-sync", n(1000)
		if noSync {
			sub, calls = "wal-nosync", n(5000)
		}
		store, err := jobs.Open(dir+"/"+sub, jobs.StoreOptions{NoSync: noSync})
		if err != nil {
			return err
		}
		j, err := store.Submit("bench", 0, bigSpec)
		if err == nil {
			_, err = store.SetState(j.ID, jobs.StateRunning, "")
		}
		if err != nil {
			store.Close()
			return err
		}
		space, _ := bigSpec.Space()
		size, _ := space.Size64()
		us, err := timeEach(calls, func(i int) error {
			done := uint64(i+1) * 1024
			cp := dispatch.NewCheckpoint([]keyspace.Interval{keyspace.NewInterval(int64(done), int64(size))}, done, nil)
			return store.RecordCheckpoint(j.ID, cp)
		})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if noSync {
			out.set("jobs.wal_append_nosync_us_p50", median(us), "us")
		} else {
			out.set("jobs.wal_append_us_p50", median(us), "us")
			out.set("jobs.wal_append_us_p99", percentile(us, 99), "us")
			fmt.Printf("# jobs.wal_append_us: %d samples\n", len(us))
		}
	}
	return nil
}

// syntheticExecutor gives StartManual a tuning without searching.
type syntheticExecutor struct{}

func (syntheticExecutor) Name() string { return "synthetic" }
func (syntheticExecutor) Tune(context.Context) (core.Tuning, error) {
	return core.Tuning{MinBatch: 1024, Throughput: 1e7}, nil
}
func (syntheticExecutor) Search(context.Context, jobs.Spec, keyspace.Interval) (*dispatch.Report, error) {
	return nil, errors.New("synthetic executor does not search")
}

// leaseCommit drives the lease engine by hand — TryLease, then Commit
// with a synthetic report — so the rate is issue + commit + checkpoint
// with no search and no RPC in between; then it times Service.Submit.
func leaseCommit(ctx context.Context, dir string, n func(int) int, out metrics) error {
	for _, noSync := range []bool{false, true} {
		sub, calls := "lease-sync", n(1000)
		if noSync {
			sub, calls = "lease-nosync", n(5000)
		}
		store, err := jobs.Open(dir+"/"+sub, jobs.StoreOptions{NoSync: noSync})
		if err != nil {
			return err
		}
		svc := jobs.NewService(store, []jobs.Executor{syntheticExecutor{}}, jobs.Options{MinLease: 1024, MaxLease: 1024})
		if err := svc.StartManual(ctx); err != nil {
			store.Close()
			return err
		}
		err = func() error {
			if _, err := svc.Submit("bench", 0, bigSpec); err != nil {
				return err
			}
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				l, ok := svc.TryLease(0)
				if !ok {
					return errors.New("lease engine: no lease to issue")
				}
				if !svc.Commit(l, &dispatch.Report{Tested: l.N}) {
					return errors.New("lease engine: commit refused")
				}
			}
			rate := float64(calls) / time.Since(t0).Seconds()
			if noSync {
				out.set("jobs.lease_commit_nosync_ops_per_s", rate, "ops/s")
				return nil
			}
			out.set("jobs.lease_commit_ops_per_s", rate, "ops/s")
			us, err := timeEach(n(300), func(int) error {
				_, err := svc.Submit("bench", 0, bigSpec)
				return err
			})
			out.set("jobs.submit_us_p50", median(us), "us")
			return err
		}()
		if serr := svc.Shutdown(ctx); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// searchRPC times the search call on a loopback keyworker over an
// interval too small to matter: what is left after subtracting the
// worker's own search time is K_scatter + K_gather.
func searchRPC(ctx context.Context, dir string, n func(int) int, out metrics) error {
	w := workloads[0]
	w.lease = 1 << 20
	r, err := newFleetRig(ctx, dir+"/rpc", w, nil)
	if err != nil {
		return err
	}
	defer r.close()
	ex := r.execs[0]
	var tuneMS []float64
	for i := 0; i < n(5); i++ {
		t0 := time.Now()
		if _, err := ex.Tune(ctx); err != nil {
			return err
		}
		tuneMS = append(tuneMS, millis(time.Since(t0)))
	}
	out.set("netproto.tune_ms", median(tuneMS), "ms")

	spec := bigSpec
	var inSearch time.Duration
	us, err := timeEach(n(2000), func(i int) error {
		rep, err := ex.Search(ctx, spec, keyspace.NewInterval(int64(i)*64, int64(i+1)*64))
		if err == nil {
			inSearch += rep.Elapsed
		}
		return err
	})
	if err != nil {
		return err
	}
	out.set("netproto.search_rtt_us_p50", median(us)-micros(inSearch)/float64(len(us)), "us")
	return nil
}

// httpCalls times the job API: reads straight off one shard's
// jobs.NewAPI handler and through the shardplane router, and submits
// through the router.
func httpCalls(ctx context.Context, dir string, n func(int) int, out metrics) error {
	w, _ := findWorkload("api-small-jobs")
	w.maxLen = 2 // 702 keys: the job itself costs nothing
	r, err := newAPIRig(ctx, dir+"/http", w, nil)
	if err != nil {
		return err
	}
	defer r.close()
	hc := r.clients[0]
	gen := newGenerator(w, 1, 0, false)

	var ids []string
	submitUS, err := timeEach(n(300), func(int) error {
		in, err := gen.next(w.maxLen)
		if err != nil {
			return err
		}
		var j jobs.Job
		err = postJob(ctx, hc, r.srv.URL, in, &j)
		ids = append(ids, j.ID)
		return err
	})
	if err != nil {
		return err
	}
	out.set("shardplane.submit_ms_p50", median(submitUS)/1e3, "ms")
	out.set("shardplane.submit_ms_p95", percentile(submitUS, 95)/1e3, "ms")
	fmt.Printf("# shardplane.submit_ms: %d samples\n", len(submitUS))
	for _, id := range ids {
		if err := drainSSE(ctx, hc, r.srv.URL+"/jobs/"+id+"/events"); err != nil {
			return err
		}
	}

	// The same GET, turn and turn about, straight off the owning shard's
	// own handler and through the router.
	var direct *httptest.Server
	for _, sh := range r.shards {
		if sh.Owns(ids[0]) {
			direct = httptest.NewServer(jobs.NewAPI(sh.Service()).Handler())
			defer direct.Close()
		}
	}
	if direct == nil {
		return fmt.Errorf("no shard owns job %s", ids[0])
	}
	bases := []string{direct.URL, r.srv.URL}
	var getUS [2][]float64
	for i := 0; i < 2*n(2000); i++ {
		t0 := time.Now()
		if err := doJSON(ctx, hc, http.MethodGet, bases[i%2]+"/jobs/"+ids[0], nil, http.StatusOK, nil); err != nil {
			return err
		}
		getUS[i%2] = append(getUS[i%2], micros(time.Since(t0)))
	}
	directUS, routed := median(getUS[0]), median(getUS[1])
	out.set("jobs.http_get_us_p50", directUS, "us")
	out.set("shardplane.get_us_p50", routed, "us")
	out.set("shardplane.get_overhead", routed/directUS, "ratio")

	listUS, err := timeEach(n(200), func(int) error {
		return doJSON(ctx, hc, http.MethodGet, r.srv.URL+"/jobs", nil, http.StatusOK, nil)
	})
	if err != nil {
		return err
	}
	out.set("shardplane.list_us_p50", median(listUS), "us")
	return nil
}
