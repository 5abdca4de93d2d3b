package jobs

import (
	"crypto/sha1"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Backend is what the API serves: one Service, or anything that routes
// the same seven calls to several (shardplane.Router).
type Backend interface {
	Submit(tenant string, priority int, spec Spec) (Job, error)
	Get(id string) (Job, error)
	List(tenant string) []Job
	Pause(id string) (Job, error)
	Resume(id string) (Job, error)
	Cancel(id, reason string) (Job, error)
	Watch(jobID string) (<-chan Event, func())
}

// API is the HTTP face of a Backend:
//
//	POST /jobs                {tenant, priority, spec}  -> 201 + Job
//	GET  /jobs[?tenant=t]                               -> [Job]
//	GET  /jobs/{id}                                     -> Job
//	POST /jobs/{id}/pause                               -> Job
//	POST /jobs/{id}/resume                              -> Job
//	POST /jobs/{id}/cancel    {reason?}                 -> Job
//	GET  /jobs/{id}/events                              -> SSE Event stream
//	GET  /events                                        -> SSE, all jobs
//
// Request bodies are bounded (maxSubmitBody, maxCancelBody); a larger
// one is answered 413. Mount with http.Handler() wherever the process
// serves HTTP (keymaster mounts it beside -status).
type API struct {
	svc Backend
}

// NewAPI wraps a backend; a *Service is one.
func NewAPI(svc Backend) *API { return &API{svc: svc} }

// Request-body bounds. The largest legal submission is a spec carrying
// MaxTargets hex digests of the widest supported algorithm, each a
// quoted, comma-separated JSON string; the slack covers every other
// field. A cancel body holds one reason string.
const (
	maxSubmitBody = MaxTargets*(2*sha1.Size+3) + 64<<10
	maxCancelBody = 4 << 10
)

// sseWriteTimeout bounds the write of one event to an SSE client.
var sseWriteTimeout = 10 * time.Second

// Handler builds the routing table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", a.submit)
	mux.HandleFunc("GET /jobs", a.list)
	mux.HandleFunc("GET /jobs/{id}", a.byID(a.svc.Get))
	mux.HandleFunc("POST /jobs/{id}/pause", a.byID(a.svc.Pause))
	mux.HandleFunc("POST /jobs/{id}/resume", a.byID(a.svc.Resume))
	mux.HandleFunc("POST /jobs/{id}/cancel", a.cancel)
	mux.HandleFunc("GET /jobs/{id}/events", a.events)
	mux.HandleFunc("GET /events", a.events)
	return mux
}

// submitRequest is the POST /jobs body.
type submitRequest struct {
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	Spec     Spec   `json:"spec"`
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps service errors onto status codes: unknown job 404,
// forbidden transition 409, oversized body 413, everything else
// (validation) 400.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case tooLarge(err):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrTransition):
		code = http.StatusConflict
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

// tooLarge reports whether err is a body read past its MaxBytesReader
// bound.
func tooLarge(err error) bool {
	var e *http.MaxBytesError
	return errors.As(err, &e)
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, maxSubmitBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("jobs: bad request body: %w", err))
		return
	}
	j, err := a.svc.Submit(req.Tenant, req.Priority, req.Spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, j)
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.svc.List(r.URL.Query().Get("tenant")))
}

// byID adapts the calls that take a job ID and answer with the job
// (get, pause, resume).
func (a *API) byID(op func(id string) (Job, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := op(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, j)
	}
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Reason string `json:"reason"`
	}
	// An empty or malformed body means no reason; only an oversized one
	// is refused.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCancelBody)).Decode(&body); tooLarge(err) {
		writeErr(w, fmt.Errorf("jobs: bad request body: %w", err))
		return
	}
	j, err := a.svc.Cancel(r.PathValue("id"), body.Reason)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// events streams job events as server-sent events: one "event:" line
// with the event type and a "data:" line with the JSON Event. The
// stream begins with a synthetic snapshot event per matching job so a
// late subscriber starts from current truth, and ends when the client
// goes away, the service shuts down, or (for a single-job stream) the
// job reaches a terminal state. Each event must be written within
// sseWriteTimeout: a client that stops reading loses its stream rather
// than pinning the handler and its subscription; it reconnects to a new
// snapshot prologue.
func (a *API) events(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{Error: "jobs: streaming unsupported"})
		return
	}
	jobID := r.PathValue("id")
	if jobID != "" {
		if _, err := a.svc.Get(jobID); err != nil {
			writeErr(w, err)
			return
		}
	}
	ch, cancel := a.svc.Watch(jobID)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // deliver headers before the first event arrives

	// The deadline is the connection's: clear it for the next request.
	rc := http.NewResponseController(w)
	defer rc.SetWriteDeadline(time.Time{})
	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)) //keyvet:allow clockseam (a socket deadline is wall time)
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	// Snapshot prologue: where every matching job stands right now.
	if jobID != "" {
		j, err := a.svc.Get(jobID)
		if err != nil || !send(Event{Type: EventState, Job: j}) {
			return
		}
		if j.State.Terminal() {
			return
		}
	} else {
		for _, j := range a.svc.List("") {
			if !send(Event{Type: EventState, Job: j}) {
				return
			}
		}
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !send(ev) {
				return
			}
			if jobID != "" && ev.Job.State.Terminal() {
				return
			}
		}
	}
}
