package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"keysearch/internal/jobs"
	"keysearch/internal/netproto"
	"keysearch/internal/shardplane"
)

// rig is a running system under test. runJob pushes one generated job
// through it as the given client, returns the user-visible turnaround,
// and audits the outcome (an audit failure is an error, never a
// timing).
type rig interface {
	runJob(ctx context.Context, client int, in jobInput) (time.Duration, error)
	close() error
}

// newRig builds the workload's rig under dir. Steal is off, every
// telemetry registry is nil and the WAL fsyncs, on every workload. A
// non-nil span log wraps each executor in the timing decorator.
func newRig(ctx context.Context, dir string, w workload, spans *spanLog) (rig, error) {
	if w.api {
		return newAPIRig(ctx, dir, w, spans)
	}
	return newFleetRig(ctx, dir, w, spans)
}

func serviceOptions(w workload, aud *auditor) jobs.Options {
	return jobs.Options{MinLease: w.lease, MaxLease: w.lease, OnCommit: aud.onCommit}
}

// audited runs the checks every job of every run must pass.
func audited(aud *auditor, j jobs.Job, in jobInput) error {
	if err := checkJob(j, in.size, in.planted); err != nil {
		return err
	}
	if err := checkTiling(aud.take(j.ID), in.size); err != nil {
		return fmt.Errorf("job %s: %w", j.ID, err)
	}
	return nil
}

// fleetRig is the served fleet path in one process: a job service with
// an fsynced WAL leasing to keyworkers that joined a netproto master
// over TCP on 127.0.0.1, exactly as keymaster -jobs -jobs-fleet wires
// it.
type fleetRig struct {
	aud     *auditor
	store   *jobs.Store
	execs   []jobs.Executor
	svc     *jobs.Service
	master  *netproto.Master
	stop    context.CancelFunc
	workers sync.WaitGroup
}

func newFleetRig(ctx context.Context, dir string, w workload, spans *spanLog) (_ *fleetRig, err error) {
	r := &fleetRig{aud: newAuditor()}
	wctx, stop := context.WithCancel(ctx)
	r.stop = stop
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	if r.store, err = jobs.Open(filepath.Join(dir, "store"), jobs.StoreOptions{}); err != nil {
		return nil, err
	}
	if r.master, err = netproto.NewMaster("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		cfg := netproto.WorkerConfig{Name: fmt.Sprintf("w%d", i), Workers: 1}
		r.workers.Add(1)
		go func() {
			defer r.workers.Done()
			// The error is the hang-up at teardown; a worker lost earlier
			// surfaces as failed leases and a job that never completes.
			_ = netproto.Dial(wctx, r.master.Addr(), cfg)
		}()
	}
	remote, err := r.master.AcceptWorkers(ctx, fleetWorkers)
	if err != nil {
		return nil, err
	}
	for _, rw := range remote {
		r.execs = append(r.execs, spans.wrap(netproto.NewExecutor(rw)))
	}
	svc := jobs.NewService(r.store, r.execs, serviceOptions(w, r.aud))
	if err := svc.Start(ctx); err != nil {
		return nil, err
	}
	r.svc = svc
	return r, nil
}

// runJob times Submit to the terminal state as a subscriber sees it.
func (r *fleetRig) runJob(ctx context.Context, _ int, in jobInput) (time.Duration, error) {
	t0 := time.Now()
	j, err := r.svc.Submit(in.tenant, 0, in.spec)
	if err != nil {
		return 0, err
	}
	events, cancel := r.svc.Watch(j.ID)
	defer cancel()
	// The hub drops events for a subscriber that falls behind, so the
	// stream is backed by a slow poll; a short job can also finish before
	// the subscription exists, which the first poll catches.
	poll := time.NewTicker(100 * time.Millisecond)
	defer poll.Stop()
	for j, err = r.svc.Get(j.ID); err == nil && !j.Done(); {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case ev, ok := <-events:
			if !ok {
				return 0, errors.New("event stream closed before the job finished")
			}
			j = ev.Job
		case <-poll.C:
			j, err = r.svc.Get(j.ID)
		}
	}
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return took, audited(r.aud, j, in)
}

// close stops whatever was started, in dependency order, and waits for
// the worker goroutines.
func (r *fleetRig) close() error {
	var err error
	switch {
	case r.svc != nil:
		err = r.svc.Shutdown(context.Background()) // closes the store
	case r.store != nil:
		err = r.store.Close()
	}
	r.stop()
	if r.master != nil {
		r.master.Close()
	}
	r.workers.Wait()
	return err
}

// apiRig is the sharded control plane as cmd/keymaster/shards.go wires
// it: a router over shards of one local executor each, every shard
// streaming its WAL to an in-process follower, served over HTTP.
type apiRig struct {
	aud       *auditor
	shards    []*shardplane.Shard
	followers []apiFollower
	repl      sync.WaitGroup
	srv       *httptest.Server
	// One http.Client per closed-loop client: its keep-alive connection
	// carries the POST and the GET, the SSE stream takes a second one.
	clients []*http.Client
}

type apiFollower struct {
	rep  *jobs.Replica
	conn net.Conn
}

func newAPIRig(ctx context.Context, dir string, w workload, spans *spanLog) (_ *apiRig, err error) {
	r := &apiRig{aud: newAuditor()}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	for i := 0; i < apiShards; i++ {
		name := shardName(i)
		execs := []jobs.Executor{spans.wrap(jobs.NewLocalExecutor(name+"-local-0", 1))}
		sh, err := shardplane.OpenShard(name, filepath.Join(dir, name), execs, shardplane.ShardOptions{
			Jobs:      serviceOptions(w, r.aud),
			Replicate: true,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", name, err)
		}
		r.shards = append(r.shards, sh)
		rep, err := jobs.OpenReplica(filepath.Join(dir, name+"-follower"), jobs.ReplicaOptions{})
		if err != nil {
			return nil, fmt.Errorf("shard %s follower: %w", name, err)
		}
		fol := shardplane.NewFollower(rep)
		a, b := net.Pipe()
		r.followers = append(r.followers, apiFollower{rep: rep, conn: b})
		r.repl.Add(2)
		// Both ends return when close() hangs up the pipe.
		go func() { defer r.repl.Done(); _ = sh.ServeFollower(a) }()
		go func() { defer r.repl.Done(); _ = fol.Run(b) }()
		if err := sh.Start(ctx); err != nil {
			return nil, fmt.Errorf("shard %s: %w", name, err)
		}
	}
	plane, err := shardplane.NewPlane(r.shards, shardplane.RingOptions{})
	if err != nil {
		return nil, err
	}
	r.srv = httptest.NewServer(shardplane.NewRouter(plane, nil).Handler())
	for i := 0; i < w.clients; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{}})
	}
	return r, nil
}

// runJob is one user operation: POST /jobs, read the job's SSE stream
// until the server closes it on the terminal state, then GET the job
// and verify its JSON. The turnaround stops when the stream closes.
func (r *apiRig) runJob(ctx context.Context, client int, in jobInput) (time.Duration, error) {
	hc := r.clients[client]
	t0 := time.Now()
	var j jobs.Job
	if err := postJob(ctx, hc, r.srv.URL, in, &j); err != nil {
		return 0, err
	}
	if err := drainSSE(ctx, hc, r.srv.URL+"/jobs/"+j.ID+"/events"); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	if err := doJSON(ctx, hc, http.MethodGet, r.srv.URL+"/jobs/"+j.ID, nil, http.StatusOK, &j); err != nil {
		return 0, err
	}
	return took, audited(r.aud, j, in)
}

// postJob submits a generated job through the HTTP API.
func postJob(ctx context.Context, hc *http.Client, base string, in jobInput, out *jobs.Job) error {
	body, err := json.Marshal(map[string]any{"tenant": in.tenant, "spec": in.spec})
	if err != nil {
		return err
	}
	return doJSON(ctx, hc, http.MethodPost, base+"/jobs", body, http.StatusCreated, out)
}

// doJSON performs one request and decodes the reply; any status other
// than want is a failed operation.
func doJSON(ctx context.Context, hc *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drainSSE reads an event stream until the server closes it.
func drainSSE(ctx context.Context, hc *http.Client, url string) error {
	return doJSON(ctx, hc, http.MethodGet, url, nil, http.StatusOK, nil)
}

func (r *apiRig) close() error {
	if r.srv != nil {
		r.srv.Close()
	}
	for _, hc := range r.clients {
		hc.CloseIdleConnections()
	}
	var first error
	for _, sh := range r.shards {
		if err := sh.Shutdown(context.Background()); err != nil && first == nil {
			first = err
		}
	}
	// A shard's shutdown closes its feed, which ends the sender and, by
	// EOF, the follower; the replica closes once nothing applies to it.
	for _, fo := range r.followers {
		fo.conn.Close()
	}
	r.repl.Wait()
	for _, fo := range r.followers {
		if err := fo.rep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
