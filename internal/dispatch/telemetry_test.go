package dispatch

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/keyspace"
	"keysearch/internal/telemetry"
)

// telWorker builds a FuncWorker with the given throughput that counts its
// chunk exactly; after dieAfter successful chunks (0 = never) every
// further call fails, exercising the requeue path.
func telWorker(name string, x float64, dieAfter int) *FuncWorker {
	var mu sync.Mutex
	calls := 0
	return &FuncWorker{
		WorkerName: name,
		TuneFunc: func(context.Context) (core.Tuning, error) {
			return core.Tuning{MinBatch: 100, Throughput: x}, nil
		},
		SearchFunc: func(ctx context.Context, iv keyspace.Interval) (*Report, error) {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			// A tiny per-chunk latency keeps the workers interleaved, so
			// death schedules fire before a single goroutine drains the
			// pool.
			time.Sleep(time.Millisecond)
			if dieAfter > 0 && n > dieAfter {
				return nil, fmt.Errorf("%s: injected death", name)
			}
			ln, _ := iv.Len64()
			return &Report{Tested: ln}, nil
		},
	}
}

// TestTelemetryExactCoverage: with healthy workers the summed per-worker
// tested counters equal the interval size exactly, the aggregate counter
// agrees, and nothing lands in retested.
func TestTelemetryExactCoverage(t *testing.T) {
	const interval = 100_000
	reg := telemetry.NewRegistry()
	d := NewDispatcher("tel", Options{Telemetry: reg},
		telWorker("w1", 1e6, 0), telWorker("w2", 3e5, 0), telWorker("w3", 7e5, 0))
	rep, err := d.Search(context.Background(), keyspace.NewInterval(0, interval))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tested != interval {
		t.Fatalf("report tested = %d, want %d", rep.Tested, interval)
	}
	s := reg.Snapshot()
	if got := s.Counters[telemetry.MetricDispatchTested]; got != interval {
		t.Fatalf("aggregate counter = %d, want %d", got, interval)
	}
	if got := s.SumPrefix(telemetry.MetricDispatchTested + "."); got != interval {
		t.Fatalf("summed per-worker counters = %d, want %d", got, interval)
	}
	if s.Counters[telemetry.MetricDispatchRetested] != 0 ||
		s.Counters[telemetry.MetricDispatchRequeues] != 0 {
		t.Fatalf("healthy run recorded retested=%d requeues=%d",
			s.Counters[telemetry.MetricDispatchRetested],
			s.Counters[telemetry.MetricDispatchRequeues])
	}
	var dispatches, gathers int
	for _, ev := range s.Events {
		switch ev.Type {
		case telemetry.EventDispatch:
			dispatches++
		case telemetry.EventGather:
			gathers++
		}
	}
	if dispatches == 0 || dispatches != gathers {
		t.Fatalf("events: %d dispatches vs %d gathers", dispatches, gathers)
	}
}

// TestTelemetryExactUnderChaos: workers die mid-run on several schedules;
// coverage stays exact (tested == interval) while every requeued chunk is
// accounted in retested — double-counting is visible, never folded in.
func TestTelemetryExactUnderChaos(t *testing.T) {
	const interval = 137_521 // deliberately not a round number
	for _, tc := range []struct {
		name      string
		dieAfter  []int // per-worker death schedule (0 = survives)
		wantError bool
	}{
		{"one-death", []int{0, 2, 0}, false},
		{"two-deaths", []int{0, 1, 3}, false},
		{"staggered", []int{5, 1, 2, 0}, false},
		{"all-die", []int{1, 1, 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			workers := make([]Worker, len(tc.dieAfter))
			for i, da := range tc.dieAfter {
				workers[i] = telWorker(fmt.Sprintf("w%d", i), float64(1+i)*1e5, da)
			}
			d := NewDispatcher("chaos", Options{Telemetry: reg, MaxChunk: 4_001}, workers...)
			rep, err := d.Search(context.Background(), keyspace.NewInterval(0, interval))
			s := reg.Snapshot()
			if tc.wantError {
				if err == nil {
					t.Fatal("expected all-workers-dead error")
				}
				// Even on failure, whatever WAS gathered must match the
				// counters exactly.
				if s.Counters[telemetry.MetricDispatchTested] != rep.Tested {
					t.Fatalf("counter %d != report %d",
						s.Counters[telemetry.MetricDispatchTested], rep.Tested)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tested != interval {
				t.Fatalf("tested = %d, want %d (exact coverage)", rep.Tested, interval)
			}
			if got := s.SumPrefix(telemetry.MetricDispatchTested + "."); got != interval {
				t.Fatalf("summed per-worker counters = %d, want %d", got, interval)
			}
			if rep.Requeues == 0 || rep.Retested == 0 {
				t.Fatalf("chaos schedule produced no requeues (requeues=%d retested=%d)",
					rep.Requeues, rep.Retested)
			}
			if got := s.Counters[telemetry.MetricDispatchRetested]; got != rep.Retested {
				t.Fatalf("retested counter = %d, report says %d", got, rep.Retested)
			}
			if got := s.Counters[telemetry.MetricDispatchRequeues]; got != uint64(rep.Requeues) {
				t.Fatalf("requeues counter = %d, report says %d", got, rep.Requeues)
			}
			// The retested identifiers must appear as requeue events whose
			// sizes sum to the counter.
			var requeued uint64
			for _, ev := range s.Events {
				if ev.Type == telemetry.EventRequeue {
					requeued += ev.N
				}
			}
			if requeued != rep.Retested {
				t.Fatalf("requeue events sum to %d, retested = %d", requeued, rep.Retested)
			}
		})
	}
}
