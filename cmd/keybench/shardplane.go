package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/fleetsim"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/shardplane"
)

// benchExec is a synthetic executor with a fixed tuning; the router
// bench never leases, so Search is unreachable.
type benchExec struct{ name string }

func (e *benchExec) Name() string { return e.name }
func (e *benchExec) Tune(context.Context) (core.Tuning, error) {
	return core.Tuning{MinBatch: 1024, Throughput: 1000}, nil
}
func (e *benchExec) Search(context.Context, jobs.Spec, keyspace.Interval) (*dispatch.Report, error) {
	return nil, fmt.Errorf("keybench: benchExec cannot search")
}

// RouterBench measures what the sharded front-end costs over the
// single-service API it mimics: the same GET requests against a direct
// jobs.API handler and against the router fronting N shards.
type RouterBench struct {
	Shards   int `json:"shards"`
	Jobs     int `json:"jobs"`
	Requests int `json:"requests"`
	// Get is the by-ID path (prefix-routed to one shard); List is the
	// fan-out path (every shard queried, results merged).
	DirectGetNsPerOp  float64 `json:"direct_get_ns_per_op"`
	RouterGetNsPerOp  float64 `json:"router_get_ns_per_op"`
	GetOverhead       float64 `json:"get_overhead"`
	DirectListNsPerOp float64 `json:"direct_list_ns_per_op"`
	RouterListNsPerOp float64 `json:"router_list_ns_per_op"`
	ListOverhead      float64 `json:"list_overhead"`
}

// FailoverScenario is one virtual-time rehearsal of the crash-promote
// cycle (fleetsim.RehearseFailover: the run itself audits the
// exactly-once tiling invariant before returning).
type FailoverScenario struct {
	Name        string  `json:"name"`
	ReplLag     int     `json:"repl_lag"`
	DetectAfter float64 `json:"detect_after_s"`
	HostSeconds float64 `json:"host_seconds"`
	// RecoverySeconds is crash-to-first-promoted-commit in virtual
	// time (-1 on the baseline).
	RecoverySeconds float64                  `json:"recovery_s"`
	Result          *fleetsim.FailoverResult `json:"result"`
}

// ShardplaneReport is the whole BENCH_shardplane.json document.
type ShardplaneReport struct {
	Quick    bool               `json:"quick"`
	Router   RouterBench        `json:"router"`
	Failover []FailoverScenario `json:"failover"`
}

// timeRequests replays one request shape n times against a handler and
// returns ns/op, failing on any non-wantCode response.
func timeRequests(srv *httptest.Server, method, path string, body []byte, n, wantCode int) (float64, error) {
	client := srv.Client()
	start := time.Now()
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != wantCode {
			resp.Body.Close()
			return 0, fmt.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		resp.Body.Close()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// routerBench spins up nShards manually driven shards, submits a spread
// of pending jobs, and compares the router against a direct single-
// service API on the read paths.
func routerBench(nShards, nJobs, requests int) (RouterBench, error) {
	rb := RouterBench{Shards: nShards, Jobs: nJobs, Requests: requests}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	shards := make([]*shardplane.Shard, nShards)
	for i := range shards {
		dir, err := os.MkdirTemp("", "keybench-shard-*")
		if err != nil {
			return rb, err
		}
		defer os.RemoveAll(dir)
		sh, err := shardplane.OpenShard(fmt.Sprintf("s%d", i), dir,
			[]jobs.Executor{&benchExec{name: "bench-0"}}, shardplane.ShardOptions{
				Store: jobs.StoreOptions{NoSync: true},
			})
		if err != nil {
			return rb, err
		}
		defer sh.Shutdown(context.Background())
		if err := sh.StartManual(ctx); err != nil {
			return rb, err
		}
		shards[i] = sh
	}
	plane, err := shardplane.NewPlane(shards, shardplane.RingOptions{Seed: 1})
	if err != nil {
		return rb, err
	}
	router := httptest.NewServer(shardplane.NewRouter(plane, nil).Handler())
	defer router.Close()
	direct := httptest.NewServer(jobs.NewAPI(shards[0].Service()).Handler())
	defer direct.Close()

	spec := fleetSpec("ab", 12)
	spec.Steal = false
	var routedIDs, directIDs []string
	for i := 0; i < nJobs; i++ {
		// Spread across tenants (and therefore shards) via the router;
		// mirror the same population on the direct service.
		tenant := fmt.Sprintf("tenant-%d", i)
		j, err := submitTo(router.URL, tenant, spec)
		if err != nil {
			return rb, err
		}
		routedIDs = append(routedIDs, j.ID)
		dj, err := shards[0].Service().Submit(tenant, 0, spec)
		if err != nil {
			return rb, err
		}
		directIDs = append(directIDs, dj.ID)
	}

	if rb.DirectGetNsPerOp, err = timeRequests(direct, "GET", "/jobs/"+directIDs[len(directIDs)/2], nil, requests, http.StatusOK); err != nil {
		return rb, err
	}
	if rb.RouterGetNsPerOp, err = timeRequests(router, "GET", "/jobs/"+routedIDs[len(routedIDs)/2], nil, requests, http.StatusOK); err != nil {
		return rb, err
	}
	if rb.DirectListNsPerOp, err = timeRequests(direct, "GET", "/jobs", nil, requests, http.StatusOK); err != nil {
		return rb, err
	}
	if rb.RouterListNsPerOp, err = timeRequests(router, "GET", "/jobs", nil, requests, http.StatusOK); err != nil {
		return rb, err
	}
	rb.GetOverhead = rb.RouterGetNsPerOp / rb.DirectGetNsPerOp
	rb.ListOverhead = rb.RouterListNsPerOp / rb.DirectListNsPerOp
	return rb, nil
}

func submitTo(base, tenant string, spec jobs.Spec) (jobs.Job, error) {
	body, err := json.Marshal(map[string]any{"tenant": tenant, "spec": spec})
	if err != nil {
		return jobs.Job{}, err
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobs.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return jobs.Job{}, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	var j jobs.Job
	err = json.NewDecoder(resp.Body).Decode(&j)
	return j, err
}

// runFailoverScenario rehearses one config against throwaway stores.
func runFailoverScenario(name string, cfg fleetsim.FailoverConfig) (FailoverScenario, error) {
	masterDir, err := os.MkdirTemp("", "keybench-failover-m-*")
	if err != nil {
		return FailoverScenario{}, err
	}
	defer os.RemoveAll(masterDir)
	replicaDir, err := os.MkdirTemp("", "keybench-failover-r-*")
	if err != nil {
		return FailoverScenario{}, err
	}
	defer os.RemoveAll(replicaDir)
	cfg.MasterDir, cfg.ReplicaDir = masterDir, replicaDir
	start := time.Now()
	res, err := fleetsim.RehearseFailover(cfg)
	if err != nil {
		return FailoverScenario{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	if res.JobsDone != len(cfg.Submissions) {
		return FailoverScenario{}, fmt.Errorf("scenario %s: %d of %d jobs completed", name, res.JobsDone, len(cfg.Submissions))
	}
	sc := FailoverScenario{
		Name:            name,
		ReplLag:         cfg.ReplLag,
		DetectAfter:     cfg.DetectAfter,
		HostSeconds:     time.Since(start).Seconds(),
		RecoverySeconds: -1,
		Result:          res,
	}
	if res.FirstCommitAfter >= 0 {
		sc.RecoverySeconds = res.FirstCommitAfter - res.CrashAt
	}
	return sc, nil
}

// namedFailover is one row of the failover table.
type namedFailover struct {
	name string
	cfg  fleetsim.FailoverConfig
}

// failoverScenarios is the failover table of BENCH_shardplane.json:
// a no-crash baseline, then a mid-run master crash against a
// synchronous and a lagged replica.
func failoverScenarios(quick bool) []namedFailover {
	workers, maxLen := 60, 18 // ~520k keys per job
	if quick {
		workers, maxLen = 30, 16 // ~130k keys per job
	}
	spec := fleetSpec("ab", maxLen)
	spec.Steal = false
	base := fleetsim.FailoverConfig{
		Workers: workers,
		Seed:    7,
		TputMin: 300,
		TputMax: 900,
		// Short leases commit early, so the mid-run crash severs real
		// progress instead of the first round of 30-second leases.
		LeaseSeconds:    5,
		CheckpointEvery: 4,
		EventBudget:     20_000_000,
		Submissions: []fleetsim.Submission{
			{Tenant: "a", Spec: spec, Plant: -1},
			{Tenant: "b", Spec: spec, Plant: -1},
			{Tenant: "c", Spec: spec, Plant: -1},
		},
		CrashAt: -1,
	}
	// The crash must land mid-run: the quick fleet finishes ~131k keys
	// per job in ~30 virtual seconds, the full fleet ~524k in ~45.
	crash := base
	crash.CrashAt, crash.DetectAfter = 20, 5
	if quick {
		crash.CrashAt = 12
	}
	crashLag := crash
	crashLag.ReplLag = 16
	return []namedFailover{
		{"baseline-no-crash", base},
		{"crash-sync-replica", crash},
		{"crash-lagged-replica", crashLag},
	}
}

// shardplaneMain runs the sharded control-plane benchmark and writes
// the BENCH_shardplane.json document.
func shardplaneMain(quick bool, out string) error {
	rep := &ShardplaneReport{Quick: quick}
	requests, nJobs := 2000, 24
	if quick {
		requests, nJobs = 400, 12
	}

	fmt.Println("== Router overhead: sharded front-end vs direct job API ==")
	rb, err := routerBench(3, nJobs, requests)
	if err != nil {
		return err
	}
	rep.Router = rb
	fmt.Printf("get:  direct %8.0f ns/op  router %8.0f ns/op  (%.2fx)\n", rb.DirectGetNsPerOp, rb.RouterGetNsPerOp, rb.GetOverhead)
	fmt.Printf("list: direct %8.0f ns/op  router %8.0f ns/op  (%.2fx, %d-shard fan-out)\n", rb.DirectListNsPerOp, rb.RouterListNsPerOp, rb.ListOverhead, rb.Shards)

	fmt.Println("== Failover rehearsal: virtual-time crash-promote cycles ==")
	for _, s := range failoverScenarios(quick) {
		sc, err := runFailoverScenario(s.name, s.cfg)
		if err != nil {
			return err
		}
		rep.Failover = append(rep.Failover, sc)
		r := sc.Result
		fmt.Printf("%-20s makespan %8.1fs  recovery %6.1fs  dropped %3d  tested %9d  [%.2fs host]\n",
			sc.Name, r.Makespan, sc.RecoverySeconds, r.DroppedRecords, r.Tested, sc.HostSeconds)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", out)
	return nil
}
