package shardplane

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"keysearch/internal/jobs"
)

// blanks is n bytes of JSON whitespace, produced lazily: a request body
// the decoder has to keep reading without ever finding a value.
type blanks struct{ n int64 }

func (b *blanks) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	for i := range p {
		p[i] = ' '
	}
	b.n -= int64(len(p))
	return len(p), nil
}

// TestOversizedBodiesRefused sends request bodies through the direct
// API and through the router — one handler, so one limit: a body past
// the bound is answered 413 on both and changes nothing.
func TestOversizedBodiesRefused(t *testing.T) {
	plane, _ := newTestPlane(t, 2)
	svc := plane.Shards()[0].Service()
	j, err := svc.Submit("t", 0, testSpec(t, "a", "ab", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Past any submission the store would accept: MaxTargets SHA1
	// digests in hex, quoted, come to well under 64 bytes each.
	const hugeSubmit = jobs.MaxTargets * 64

	handlers := []struct {
		name string
		h    http.Handler
	}{
		{"direct", jobs.NewAPI(svc).Handler()},
		{"router", NewRouter(plane, nil).Handler()},
	}
	cases := []struct {
		name, path string
		size       int64
		want       int
	}{
		{"submit oversized", "/jobs", hugeSubmit, http.StatusRequestEntityTooLarge},
		{"submit in bounds", "/jobs", 1 << 10, http.StatusBadRequest}, // blank, so still no job
		{"cancel oversized", "/jobs/" + j.ID + "/cancel", 1 << 20, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		for _, via := range handlers {
			rec := httptest.NewRecorder()
			via.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, &blanks{tc.size}))
			if rec.Code != tc.want {
				t.Errorf("%s via %s: status %d, want %d (%s)", tc.name, via.name, rec.Code, tc.want, rec.Body)
			}
		}
	}
	if got, err := svc.Get(j.ID); err != nil || got.State != jobs.StatePending {
		t.Errorf("job after refused cancels: %+v, %v; want still pending", got, err)
	}
}
