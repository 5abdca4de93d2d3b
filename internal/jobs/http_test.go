package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"keysearch/internal/keyspace"
)

func startAPI(t *testing.T, delay time.Duration, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := startService(t, t.TempDir(), fleet(2, delay), opts)
	srv := httptest.NewServer(NewAPI(svc).Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown(context.Background())
	})
	return svc, srv
}

func doJSON(t *testing.T, method, url string, body any, wantCode int) []byte {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, url, resp.StatusCode, wantCode, buf.String())
	}
	return buf.Bytes()
}

// TestAPILifecycle: submit, read, list-by-tenant, pause, resume, and
// run to completion through the HTTP surface alone.
func TestAPILifecycle(t *testing.T) {
	_, srv := startAPI(t, 5*time.Millisecond, Options{})

	var j Job
	body := doJSON(t, "POST", srv.URL+"/jobs",
		submitRequest{Tenant: "alice", Priority: 2, Spec: specFor(t, "cba", "abc", 1, 9)},
		http.StatusCreated)
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.Tenant != "alice" || j.State != StatePending || j.Space != "29523" {
		t.Fatalf("submitted: %+v", j)
	}

	// Pause straight away, while leases are still outstanding.
	doJSON(t, "POST", srv.URL+"/jobs/"+j.ID+"/pause", nil, http.StatusOK)
	var got Job
	json.Unmarshal(doJSON(t, "GET", srv.URL+"/jobs/"+j.ID, nil, http.StatusOK), &got)
	if got.State != StatePaused {
		t.Fatalf("after pause: %s", got.State)
	}

	var list []Job
	json.Unmarshal(doJSON(t, "GET", srv.URL+"/jobs?tenant=alice", nil, http.StatusOK), &list)
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("list: %+v", list)
	}
	json.Unmarshal(doJSON(t, "GET", srv.URL+"/jobs?tenant=nobody", nil, http.StatusOK), &list)
	if len(list) != 0 {
		t.Fatalf("foreign tenant sees jobs: %+v", list)
	}

	doJSON(t, "POST", srv.URL+"/jobs/"+j.ID+"/resume", nil, http.StatusOK)

	got = waitTerminalSSE(t, srv, j.ID, 30*time.Second)
	if got.State != StateDone {
		t.Fatalf("job never finished over HTTP: %+v", got)
	}
	if len(got.Found) != 1 || got.Found[0] != "cba" {
		t.Fatalf("solution: %+v", got.Found)
	}
}

// waitTerminalSSE follows the job's SSE stream until a terminal event
// arrives and returns that event's job snapshot — the HTTP-surface
// analogue of waitFor: no GET polling, the server pushes the wakeup.
func waitTerminalSSE(t *testing.T, srv *httptest.Server, jobID string, timeout time.Duration) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/events: status %d", jobID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		if ev.Job.State.Terminal() {
			return ev.Job
		}
	}
	t.Fatalf("SSE stream for %s ended without a terminal event: %v", jobID, sc.Err())
	return Job{}
}

// TestAPIErrors: the error mapping — 404 unknown job, 409 forbidden
// transition, 400 bad spec.
func TestAPIErrors(t *testing.T) {
	_, srv := startAPI(t, 5*time.Millisecond, Options{})
	doJSON(t, "GET", srv.URL+"/jobs/j999999", nil, http.StatusNotFound)
	doJSON(t, "POST", srv.URL+"/jobs/j999999/pause", nil, http.StatusNotFound)
	doJSON(t, "POST", srv.URL+"/jobs",
		submitRequest{Tenant: "t", Spec: Spec{Algorithm: "rot13", Target: "00", Charset: "ab", MinLen: 1, MaxLen: 2}},
		http.StatusBadRequest)

	var j Job
	json.Unmarshal(doJSON(t, "POST", srv.URL+"/jobs",
		submitRequest{Tenant: "t", Spec: specFor(t, "ba", "ab", 1, 16)}, http.StatusCreated), &j)
	doJSON(t, "POST", srv.URL+"/jobs/"+j.ID+"/cancel", map[string]string{"reason": "test"}, http.StatusOK)
	// Terminal: resume conflicts.
	doJSON(t, "POST", srv.URL+"/jobs/"+j.ID+"/resume", nil, http.StatusConflict)
}

// TestAPIEventsSSE: the per-job stream opens with a snapshot event and
// follows the job to its terminal state.
func TestAPIEventsSSE(t *testing.T) {
	_, srv := startAPI(t, 5*time.Millisecond, Options{})
	var j Job
	json.Unmarshal(doJSON(t, "POST", srv.URL+"/jobs",
		submitRequest{Tenant: "alice", Spec: specFor(t, "acab", "abc", 1, 9)}, http.StatusCreated), &j)

	resp, err := http.Get(srv.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var events []Event
	var sawProgress bool
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Type == EventProgress || ev.Type == EventFound {
			sawProgress = true
		}
		if ev.Job.State.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Job.ID != j.ID {
		t.Fatalf("no snapshot prologue: %+v", events)
	}
	if !sawProgress {
		t.Error("stream carried no progress events")
	}
	last := events[len(events)-1]
	if last.Job.State != StateDone || last.Job.Tested != 29523 {
		t.Fatalf("terminal event: %+v", last.Job)
	}
	// The stream closed server-side at the terminal event.
	if sc.Scan() && sc.Text() != "" {
		t.Log("stream still open after terminal event (tolerated: buffered frames)")
	}

	doJSON(t, "GET", srv.URL+"/jobs/j424242/events", nil, http.StatusNotFound)
}

// TestAPIGlobalEvents: the all-jobs stream sees events from multiple
// tenants.
func TestAPIGlobalEvents(t *testing.T) {
	_, srv := startAPI(t, 100*time.Microsecond, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var a, b Job
	json.Unmarshal(doJSON(t, "POST", srv.URL+"/jobs",
		submitRequest{Tenant: "alice", Spec: specFor(t, "ba", "ab", 1, 12)}, http.StatusCreated), &a)
	json.Unmarshal(doJSON(t, "POST", srv.URL+"/jobs",
		submitRequest{Tenant: "bob", Spec: specFor(t, "ab", "ab", 1, 12)}, http.StatusCreated), &b)

	seenDone := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Job.State == StateDone {
			seenDone[ev.Job.ID] = true
		}
		if seenDone[a.ID] && seenDone[b.ID] {
			return
		}
	}
	t.Fatalf("global stream ended early (done: %v, err: %v)", seenDone, sc.Err())
}

// TestSpaceEdge2To128: identifiers are 128-bit, so a space is accepted up
// to a raw end below 2^128 and refused at every door past it. 84 symbols
// at lengths 1–20 (2^127.86 keys) is accepted, and its last key maps to
// its identifier and back; 85 symbols (2^128.2) is refused by keyspace.New,
// by Spec.Validate and by the HTTP API with a 400.
func TestSpaceEdge2To128(t *testing.T) {
	var printable []byte
	for c := byte(' '); c <= '~'; c++ {
		printable = append(printable, c)
	}
	spec := func(n int) Spec {
		return Spec{Algorithm: "md5", Target: strings.Repeat("00", 16), Charset: string(printable[:n]), MinLen: 1, MaxLen: 20}
	}

	fits := spec(84)
	if err := fits.Validate(); err != nil {
		t.Fatalf("84 symbols × 1–20: %v", err)
	}
	space, err := fits.Space()
	if err != nil {
		t.Fatal(err)
	}
	if size := space.Size(); size.Hi>>63 != 1 {
		t.Fatalf("84^≤20 = %v, want at least 2^127", size)
	}
	last, _ := space.Size().Sub(keyspace.IDOf(1))
	key, err := space.Key(last)
	if err != nil || string(key) != strings.Repeat(string(printable[83]), 20) {
		t.Fatalf("f(size-1) = %q, %v", key, err)
	}
	if back, err := space.ID(key); err != nil || back != last {
		t.Fatalf("f⁻¹(%q) = %v, %v; want %v", key, back, err, last)
	}

	over := spec(85)
	if _, err := keyspace.New(keyspace.MustCharset(over.Charset), 1, 20, keyspace.PrefixMajor); err == nil {
		t.Error("keyspace.New accepted 85 symbols × 1–20")
	}
	if err := over.Validate(); err == nil {
		t.Error("Spec.Validate accepted 85 symbols × 1–20")
	}
	_, srv := startAPI(t, 5*time.Millisecond, Options{})
	doJSON(t, "POST", srv.URL+"/jobs", submitRequest{Tenant: "t", Spec: over}, http.StatusBadRequest)
}
