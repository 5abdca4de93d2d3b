package netproto

import (
	"context"
	"sync"
	"testing"
	"time"

	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
	"keysearch/internal/netproto/chaos"
	"keysearch/internal/telemetry"
)

// TestTelemetryCleanRun: a fault-free networked search populates the
// frame, ping and dispatch counters coherently, and the dispatch tested
// totals tie exactly to the keyspace.
func TestTelemetryCleanRun(t *testing.T) {
	spec := testJob(t, "net")
	mreg := telemetry.NewRegistry()
	wreg := telemetry.NewRegistry()
	m, err := NewMaster("127.0.0.1:0", MasterOptions{
		Heartbeat:        25 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
		Retry:            fastRetry,
		Telemetry:        mreg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		_ = Dial(ctx, m.Addr(), WorkerConfig{
			Name: "w", Workers: 1, TuneStart: 512, Telemetry: wreg,
		})
	}()
	workers, err := m.AcceptWorkers(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	d := dispatch.NewDispatcher("tel-root", dispatch.Options{
		MaxChunk:  2048,
		Telemetry: mreg,
	}, bindWorkers(spec, workers)...)
	rep := searchSpace(ctx, t, d)
	if want := spaceSize(t); rep.Tested != want {
		t.Fatalf("tested %d, want %d", rep.Tested, want)
	}

	ms := mreg.Snapshot()
	if want := spaceSize(t); ms.SumPrefix(telemetry.MetricDispatchTested+".") != want {
		t.Fatalf("dispatch counters sum %d, want %d",
			ms.SumPrefix(telemetry.MetricDispatchTested+"."), want)
	}
	if ms.Counters[telemetry.MetricNetFramesSent] == 0 ||
		ms.Counters[telemetry.MetricNetFramesRecv] == 0 {
		t.Fatalf("master frame counters empty: %+v", ms.Counters)
	}
	// Every pong the master got answers a ping it sent.
	if ms.Counters[telemetry.MetricNetPongs] > ms.Counters[telemetry.MetricNetPings] {
		t.Fatalf("pongs %d exceed pings %d",
			ms.Counters[telemetry.MetricNetPongs], ms.Counters[telemetry.MetricNetPings])
	}
	if ms.Counters[telemetry.MetricNetPings] > 0 {
		if h, ok := ms.Histograms[telemetry.MetricNetPingRTT]; !ok || h.Count == 0 {
			t.Fatal("pings sent but no RTT samples recorded")
		}
	}

	ws := wreg.Snapshot()
	if ws.Counters[telemetry.MetricNetFramesSent] == 0 ||
		ws.Counters[telemetry.MetricNetFramesRecv] == 0 {
		t.Fatalf("worker frame counters empty: %+v", ws.Counters)
	}
	// The worker's core counter ties to the keyspace: it evaluated every
	// identifier exactly once (no requeues in a clean run).
	if want := spaceSize(t); ws.Counters[telemetry.MetricCoreTested] != want {
		t.Fatalf("worker core.tested %d, want %d", ws.Counters[telemetry.MetricCoreTested], want)
	}
}

// TestTelemetryChaosExactness: a severed worker forces retries, a rejoin
// and a requeue; the dispatch tested counters must STILL tie exactly to
// the keyspace, with the duplicated work visible in the requeue/retry
// counters rather than inflating coverage.
func TestTelemetryChaosExactness(t *testing.T) {
	spec := testJob(t, "zzz")
	reg := telemetry.NewRegistry()
	m, err := NewMaster("127.0.0.1:0", MasterOptions{
		Heartbeat: -1, // keep the worker write schedule exact
		Retry:     fastRetry,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 3; i++ {
		cfg := WorkerConfig{Name: "worker-" + string(rune('A'+i)), Workers: 1, TuneStart: 512}
		if i == 1 {
			cfg.Dialer = chaosDialer(chaos.Plan{SeverAfterWrites: 5, Mode: chaos.Close})
		} else {
			cfg.Throttle = healthyPause
		}
		go func() { _ = Dial(ctx, m.Addr(), cfg) }()
	}
	workers, err := m.AcceptWorkers(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}

	d := dispatch.NewDispatcher("chaos-tel", dispatch.Options{
		MaxChunk:  1024,
		Telemetry: reg,
	}, bindWorkers(spec, workers)...)
	rep := searchSpace(ctx, t, d)
	want := spaceSize(t)
	if rep.Tested != want {
		t.Fatalf("tested %d, want %d (exact despite sever)", rep.Tested, want)
	}

	s := reg.Snapshot()
	if got := s.SumPrefix(telemetry.MetricDispatchTested + "."); got != want {
		t.Fatalf("summed dispatch counters %d, want %d", got, want)
	}
	if got := s.Counters[telemetry.MetricDispatchTested]; got != want {
		t.Fatalf("aggregate dispatch counter %d, want %d", got, want)
	}
	// The severed chunk shows up as requeued/retested work, never as
	// tested coverage.
	if s.Counters[telemetry.MetricDispatchRequeues] == 0 {
		t.Fatal("sever produced no dispatch requeue")
	}
	if s.Counters[telemetry.MetricDispatchRetested] == 0 {
		t.Fatal("requeued chunk not accounted in retested")
	}
	if s.Counters[telemetry.MetricNetRetries] == 0 {
		t.Fatal("sever produced no call retry")
	}
	if got, rr := s.Counters[telemetry.MetricDispatchRetested], rep.Retested; got != rr {
		t.Fatalf("retested counter %d != report %d", got, rr)
	}
}

// TestTelemetryReconnectCounters: a worker that loses its only connection
// and rejoins by name must increment net.reconnects and emit a reconnect
// event, with no dispatch-level requeue.
func TestTelemetryReconnectCounters(t *testing.T) {
	spec := testJob(t, "net")
	reg := telemetry.NewRegistry()
	m, err := NewMaster("127.0.0.1:0", MasterOptions{
		Heartbeat: -1,
		Retry:     RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfg := WorkerConfig{
		Name: "phoenix", Workers: 1, TuneStart: 512,
		Dialer: chaosDialer(chaos.Plan{SeverAfterWrites: 5, Mode: chaos.Close}),
	}
	go func() {
		_ = DialRetry(ctx, m.Addr(), cfg, RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond})
	}()
	workers, err := m.AcceptWorkers(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	requeues := 0
	d := dispatch.NewDispatcher("rejoin-tel", dispatch.Options{
		MaxSolutions: 1,
		MaxChunk:     4096,
		Telemetry:    reg,
		OnRequeue: func(string, keyspace.Interval, error) {
			mu.Lock()
			requeues++
			mu.Unlock()
		},
	}, bindWorkers(spec, workers)...)
	space, _ := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	rep, err := d.Search(ctx, space.Whole())
	if err != nil {
		t.Fatalf("search failed despite reconnect: %v", err)
	}
	if len(rep.Found) == 0 || string(rep.Found[0]) != "net" {
		t.Fatalf("found %q", rep.Found)
	}

	s := reg.Snapshot()
	if s.Counters[telemetry.MetricNetReconnects] == 0 {
		t.Fatal("rejoin did not increment net.reconnects")
	}
	var sawJoin, sawReconnect bool
	for _, ev := range s.Events {
		switch ev.Type {
		case telemetry.EventJoin:
			sawJoin = true
		case telemetry.EventReconnect:
			sawReconnect = true
		}
	}
	if !sawJoin || !sawReconnect {
		t.Fatalf("events missing join=%v reconnect=%v", sawJoin, sawReconnect)
	}
	mu.Lock()
	defer mu.Unlock()
	if requeues != 0 {
		t.Fatalf("reconnect within the retry window still requeued %d chunks", requeues)
	}
}
