package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("counter not interned by name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestNilRegistryAndMetricsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Meter("x").Mark(1)
	r.Histogram("x").Observe(1)
	r.Histogram("x").ObserveDuration(time.Second)
	r.Emit(EventDispatch, "n", 1, "")
	r.Trace().Record(EventGather, "n", 1, "")
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 ||
		r.Meter("x").Rate() != 0 || r.Histogram("x").Quantile(0.5) != 0 {
		t.Fatal("nil metrics returned nonzero values")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Events) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestMeterWindowedRate(t *testing.T) {
	m := newMeter()
	m.Mark(100)
	m.Mark(50)
	if m.Total() != 150 {
		t.Fatalf("total = %d, want 150", m.Total())
	}
	// The window is at most the elapsed time, so the rate is finite and
	// positive right after marking.
	if r := m.Rate(); r <= 0 {
		t.Fatalf("rate = %v, want > 0", r)
	}
	// Simulate the window sliding far past the marks: every bucket must
	// be evicted and the rate drop to zero.
	m.mu.Lock()
	m.start = time.Now().Add(-time.Duration(3*meterBuckets) * meterBucket)
	m.mu.Unlock()
	if r := m.Rate(); r != 0 {
		t.Fatalf("rate after window slid past marks = %v, want 0", r)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 400 || m > 600 {
		t.Fatalf("mean = %v, want ~500.5", m)
	}
	// Exponential buckets are exact only to a factor of two.
	if p := h.Quantile(0.5); p < 250 || p > 1000 {
		t.Fatalf("p50 = %v, want within [250,1000]", p)
	}
	if p := h.Quantile(0.99); p < 500 || p > 1000 {
		t.Fatalf("p99 = %v, want within [500,1000]", p)
	}
	if p := h.Quantile(0); p < 1 {
		t.Fatalf("p0 = %v, want >= min", p)
	}
	// Durations observe nanoseconds; negatives clamp.
	h2 := &Histogram{}
	h2.ObserveDuration(-time.Second)
	h2.ObserveDuration(time.Millisecond)
	if h2.Max() != float64(time.Millisecond.Nanoseconds()) {
		t.Fatalf("duration max = %v", h2.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Min() != 0 || h.Max() != 7999 {
		t.Fatalf("min/max = %v/%v, want 0/7999", h.Min(), h.Max())
	}
}

func TestTraceRingAndOrder(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.Record(EventDispatch, "n", uint64(i), "")
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := uint64(i + 2); ev.N != want {
			t.Fatalf("event %d: N = %d, want %d (oldest-first order)", i, ev.N, want)
		}
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricDispatchTested).Add(42)
	r.Counter(PerNode(MetricDispatchTested, "w1")).Add(40)
	r.Counter(PerNode(MetricDispatchTested, "w2")).Add(2)
	r.Gauge(PerNode(MetricDispatchXj, "w1")).Set(1e6)
	r.Meter(MetricDispatchRate).Mark(42)
	r.Histogram(MetricNetPingRTT).ObserveDuration(3 * time.Millisecond)
	r.Emit(EventGather, "w1", 40, "")

	s := r.Snapshot()
	if s.Counters[MetricDispatchTested] != 42 {
		t.Fatalf("snapshot counter = %d", s.Counters[MetricDispatchTested])
	}
	if got := s.SumPrefix(MetricDispatchTested + "."); got != 42 {
		t.Fatalf("SumPrefix = %d, want 42", got)
	}
	if len(s.Events) != 1 || s.Events[0].Type != EventGather {
		t.Fatalf("events = %+v", s.Events)
	}
	body, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(body, &back); err != nil {
		// Event.Type marshals as text; unmarshalling back into the enum
		// is not supported and not needed — just require valid JSON.
		var anyDoc map[string]any
		if err2 := json.Unmarshal(body, &anyDoc); err2 != nil {
			t.Fatalf("snapshot JSON invalid: %v", err2)
		}
	}
	if len(s.CounterNames()) != 3 {
		t.Fatalf("counter names = %v", s.CounterNames())
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricDispatchTested).Add(7)
	r.Emit(EventDispatch, "w", 7, "")

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["counters"].(map[string]any)[MetricDispatchTested].(float64) != 7 {
		t.Fatalf("handler counters = %v", doc["counters"])
	}
	if doc["events"] == nil {
		t.Fatal("handler omitted events by default")
	}

	res2, err := srv.Client().Get(srv.URL + "?events=0")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	doc = map[string]any{}
	if err := json.NewDecoder(res2.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["events"] != nil {
		t.Fatal("events=0 still returned events")
	}
}

func TestStatusLine(t *testing.T) {
	r := NewRegistry()
	if got := StatusLine(r.Snapshot()); got != "no activity" {
		t.Fatalf("empty status = %q", got)
	}
	r.Counter(MetricDispatchTested).Add(1000)
	r.Counter(MetricDispatchRequeues).Add(2)
	r.Counter(MetricDispatchRetested).Add(64)
	r.Counter(MetricNetFramesSent).Add(5)
	r.Counter(MetricNetFramesRecv).Add(6)
	line := StatusLine(r.Snapshot())
	for _, want := range []string{"tested=1000", "requeues=2", "retested=64", "frames=5/6"} {
		if !contains(line, want) {
			t.Fatalf("status %q missing %q", line, want)
		}
	}

	// A job-service master: tested is the keys committed across tenants.
	r = NewRegistry()
	r.Counter(MetricJobsLeases).Add(7)
	r.Counter(PerTenant(MetricJobsTenantServed, "alice")).Add(300)
	r.Counter(PerTenant(MetricJobsTenantServed, "bob")).Add(200)
	r.Counter(MetricJobsRequeues).Add(1)
	r.Counter(MetricJobsRequeuedKeys).Add(128)
	line = StatusLine(r.Snapshot())
	for _, want := range []string{"tested=500", "leases=7", "requeues=1", "retested=128"} {
		if !contains(line, want) {
			t.Fatalf("status %q missing %q", line, want)
		}
	}
}

func TestStartLoggerEmitsAndStops(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricCoreTested).Add(9)
	lines := make(chan string, 16)
	stop := StartLogger(t.Context(), r, 10*time.Millisecond, func(s string) {
		select {
		case lines <- s:
		default:
		}
	})
	select {
	case line := <-lines:
		if !contains(line, "tested=9") {
			t.Fatalf("logged %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("logger never emitted")
	}
	stop()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
