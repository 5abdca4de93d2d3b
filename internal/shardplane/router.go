package shardplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"keysearch/internal/jobs"
	"keysearch/internal/telemetry"
)

// Router is the plane's HTTP face: the routes of jobs.API, served by
// jobs.API itself with the router as its jobs.Backend, plus one
// plane-only endpoint:
//
//	GET  /shards                                        -> topology
//
// A keyjob client cannot tell the router from a single service —
// requests are decoded, bounded, answered and streamed by the same
// handler. Submissions route to the tenant's owning shard; reads fan
// out and merge.
type Router struct {
	plane   *Plane
	reg     *telemetry.Registry // nil = uncounted (nil counters are no-ops)
	fanouts *telemetry.Counter
	events  *telemetry.Counter
}

// NewRouter builds the HTTP front end over a plane.
func NewRouter(plane *Plane, reg *telemetry.Registry) *Router {
	return &Router{
		plane:   plane,
		reg:     reg,
		fanouts: reg.Counter(telemetry.MetricShardFanouts),
		events:  reg.Counter(telemetry.MetricShardEvents),
	}
}

// Handler builds the routing table: the jobs API served over the router
// (one handler, so status codes, body limits and SSE framing cannot
// drift apart), plus /shards.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", jobs.NewAPI(rt).Handler())
	mux.HandleFunc("GET /shards", rt.shards)
	return mux
}

// Submit routes a submission to the tenant's owning shard.
func (rt *Router) Submit(tenant string, priority int, spec jobs.Spec) (jobs.Job, error) {
	if tenant == "" {
		return jobs.Job{}, errors.New("jobs: empty tenant")
	}
	sh := rt.plane.Owner(tenant)
	j, err := sh.Service().Submit(tenant, priority, spec)
	if err == nil && rt.reg != nil {
		rt.reg.Counter(telemetry.PerNode(telemetry.MetricShardSubmits, sh.Name())).Inc()
	}
	return j, err
}

// List fans a listing out across every shard and merges in submission
// order (SubmittedAt, then ID for same-instant ties), which is the
// order a single service would have returned.
func (rt *Router) List(tenant string) []jobs.Job {
	rt.fanouts.Inc()
	out := []jobs.Job{} // an empty listing encodes as [], like a single service's
	for _, sh := range rt.plane.Shards() {
		out = append(out, sh.Service().List(tenant)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// resolve runs an operation against the job's shard: the ID prefix
// names the owner directly; IDs minted outside this plane (an old
// unprefixed store, say) fall back to asking every shard.
func (rt *Router) resolve(id string, op func(*jobs.Service, string) (jobs.Job, error)) (jobs.Job, error) {
	if sh := rt.plane.ByJobID(id); sh != nil {
		return op(sh.Service(), id)
	}
	rt.fanouts.Inc()
	for _, sh := range rt.plane.Shards() {
		j, err := op(sh.Service(), id)
		if err == nil || !errors.Is(err, jobs.ErrNotFound) {
			return j, err
		}
	}
	return jobs.Job{}, fmt.Errorf("%w: %s", jobs.ErrNotFound, id)
}

// Get, Pause, Resume and Cancel run on the job's own shard.
func (rt *Router) Get(id string) (jobs.Job, error)    { return rt.resolve(id, (*jobs.Service).Get) }
func (rt *Router) Pause(id string) (jobs.Job, error)  { return rt.resolve(id, (*jobs.Service).Pause) }
func (rt *Router) Resume(id string) (jobs.Job, error) { return rt.resolve(id, (*jobs.Service).Resume) }
func (rt *Router) Cancel(id, reason string) (jobs.Job, error) {
	return rt.resolve(id, func(svc *jobs.Service, id string) (jobs.Job, error) { return svc.Cancel(id, reason) })
}

// Watch merges the event streams of every shard (Plane.Watch), counting
// each merged event. The subscription is taken before the API's
// snapshot prologue, so an event raced with the prologue is duplicated
// (a snapshot re-send), never lost — the jobs API's own guarantee.
func (rt *Router) Watch(jobID string) (<-chan jobs.Event, func()) {
	return rt.plane.Watch(jobID, rt.events)
}

// shardInfo is one /shards entry.
type shardInfo struct {
	Name  string `json:"name"`
	Jobs  int    `json:"jobs"`
	Acked uint64 `json:"acked,omitempty"` // follower watermark, 0 when not replicating
}

// shardsResponse is the /shards topology document: enough for a
// client (or another router) to verify ring agreement by ID.
type shardsResponse struct {
	RingID string      `json:"ring_id"`
	Seed   uint64      `json:"seed"`
	VNodes int         `json:"vnodes"`
	Shards []shardInfo `json:"shards"`
}

func (rt *Router) shards(w http.ResponseWriter, r *http.Request) {
	ring := rt.plane.Ring()
	resp := shardsResponse{RingID: ring.ID(), Seed: ring.Seed(), VNodes: ring.VNodes()}
	for _, sh := range rt.plane.Shards() {
		resp.Shards = append(resp.Shards, shardInfo{
			Name:  sh.Name(),
			Jobs:  sh.Service().Count(),
			Acked: sh.Acked(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
