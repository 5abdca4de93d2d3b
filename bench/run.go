package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/keyspace"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is what one invocation reports for one workload: the last
// line of standard output, and one entry of the -out document.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// setups is how many times a timed run builds its rig; setup_s is the
// median, and the last rig built is the one measured.
const setups = 5

// measurement is one closed-loop window.
type measurement struct {
	attempted, failed int
	errs              []error // the first few failures, for the report
	passed            int
	keys              uint64    // keyspace of the jobs that passed
	turnaroundMS      []float64 // of the jobs that passed
	window            time.Duration
}

func (m *measurement) keysPerS() float64 { return float64(m.keys) / m.window.Seconds() }

// measure drives the workload's clients against the rig for the given
// number of seconds. Each client stops submitting once the window has
// elapsed; the window closes when the last job in flight is verified.
func measure(ctx context.Context, r rig, w workload, seed int64, seconds float64) *measurement {
	// A job that never completes must become a failure, not a hang.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(seconds*float64(time.Second))+60*time.Second)
	defer cancel()

	m := &measurement{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		gen := newGenerator(w, seed, c, false)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < seconds && ctx.Err() == nil {
				in, err := gen.next(w.maxLen)
				var took time.Duration
				if err == nil {
					took, err = r.runJob(ctx, c, in)
				}
				mu.Lock()
				m.attempted++
				if err != nil {
					m.failed++
					if len(m.errs) < 5 {
						m.errs = append(m.errs, err)
					}
				} else {
					m.passed++
					m.keys += in.size
					m.turnaroundMS = append(m.turnaroundMS, millis(took))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.window = time.Since(start)
	return m
}

// setUp builds the rig in a fresh directory under root and runs one
// warm-up job per client through it, so connections, the page cache
// and the executors' code paths are warm when the window opens. The
// returned duration is the workload's set-up cost as a user pays it:
// store open, listeners up, workers joined, Tune done, warm-up done.
func setUp(ctx context.Context, root string, w workload, seed int64, spans *spanLog) (rig, time.Duration, error) {
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	r, err := newRig(ctx, dir, w, spans)
	if err != nil {
		return nil, 0, err
	}
	for c := 0; c < w.clients; c++ {
		in, err := newGenerator(w, seed, c, true).next(w.warmLen)
		if err == nil {
			_, err = r.runJob(ctx, c, in)
		}
		if err != nil {
			r.close()
			return nil, 0, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return r, time.Since(t0), nil
}

// runTimed is a --trace 0 run: the end-to-end metrics, tracing off.
func runTimed(ctx context.Context, root string, w workload, seed int64, seconds float64) (*result, error) {
	var r rig
	var setupS []float64
	for i := 1; ; i++ {
		var took time.Duration
		var err error
		if r, took, err = setUp(ctx, root, w, seed, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		if i == setups {
			break
		}
		if err := r.close(); err != nil {
			return nil, fmt.Errorf("closing rig: %w", err)
		}
	}
	m := measure(ctx, r, w, seed, seconds)
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("closing rig: %w", err)
	}
	res := m.result()
	if m.passed == 0 {
		return res, nil
	}
	res.Metrics.set("keys_per_s", m.keysPerS(), "keys/s")
	res.Metrics.set("jobs_per_s", float64(m.passed)/m.window.Seconds(), "jobs/s")
	res.Metrics.set("turnaround_p50_ms", median(m.turnaroundMS), "ms")
	res.Metrics.set("turnaround_p95_ms", percentile(m.turnaroundMS, 95), "ms")
	res.Metrics.set("setup_s", median(setupS), "s")
	return res, nil
}

func (m *measurement) result() *result {
	for _, err := range m.errs {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
	}
	return &result{Correct: m.failed == 0 && m.passed > 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics{}}
}

// runTraced is a --trace 1 run: the per-layer metrics. The ladder and
// the control-plane calls (layers) do not depend on the workload; the
// fleet spans come from running the workload twice, untraced for the
// reference rate and then with the timing decorator around every
// executor call.
func runTraced(ctx context.Context, root string, w workload, seed int64, seconds float64, layers metrics, spanFile string) (*result, error) {
	// ΣX_j is taken on both sides of the reference window and averaged,
	// because the host's speed drifts between one minute and the next.
	// About 8M keys per executor and side for a 20-second window.
	aloneKeys := uint64(seconds * 4e5)
	before, err := aloneRate(ctx, w, seed, aloneKeys)
	if err != nil {
		return nil, err
	}
	ref, err := window(ctx, root, w, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	after, err := aloneRate(ctx, w, seed, aloneKeys)
	if err != nil {
		return nil, err
	}
	alone := (before + after) / 2
	spans := newSpanLog()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	m, err := window(ctx, root, w, seed, seconds, spans)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&memAfter)
	if spanFile != "" {
		if err := spans.writeFile(spanFile); err != nil {
			return nil, err
		}
	}

	m.attempted += ref.attempted
	m.failed += ref.failed
	m.errs = append(ref.errs, m.errs...)
	res := m.result()
	res.Correct = res.Correct && ref.passed > 0
	if !res.Correct {
		return res, nil
	}
	for name, v := range layers {
		res.Metrics[name] = v
	}
	// Per job, so the sums describe fixed work although the window is
	// timed: search + rpc + idle = executors x window / jobs, exactly.
	t := totals(spans.snapshot())
	execs, jobsDone, leases := float64(executorsOf(w)), float64(m.passed), float64(t.leases)
	fleetS := execs * m.window.Seconds() / jobsDone
	callS := float64(t.callNS) / 1e9 / jobsDone
	searchS := float64(t.searchNS) / 1e9 / jobsDone
	res.Metrics.set("jobs.leases_per_job", leases/jobsDone, "count")
	res.Metrics.set("cracker.search_s_per_job", searchS, "s")
	res.Metrics.set("netproto.rpc_s_per_job", callS-searchS, "s")
	res.Metrics.set("netproto.rpc_us_per_lease", (callS-searchS)*jobsDone/leases*1e6, "us")
	res.Metrics.set("jobs.idle_s_per_job", fleetS-callS, "s")
	res.Metrics.set("jobs.commit_us_per_lease", (fleetS-callS)*jobsDone/leases*1e6, "us")
	res.Metrics.set("fleet.busy_fraction", searchS/fleetS, "ratio")
	res.Metrics.set("cracker.alone_keys_per_s", alone, "keys/s")
	res.Metrics.set("fleet.efficiency", ref.keysPerS()/alone, "ratio")
	res.Metrics.set("jobs.retested_keys", float64(t.tested)-float64(m.keys), "count")
	res.Metrics.set("process.peak_rss_mb", peakRSSMB(), "MB")
	res.Metrics.set("process.alloc_mb_per_job", float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/1e6/jobsDone, "MB")
	res.Metrics.set("bench.trace_overhead", m.keysPerS()/ref.keysPerS(), "ratio")
	return res, nil
}

// window sets the rig up once, measures one window and tears down.
func window(ctx context.Context, root string, w workload, seed int64, seconds float64, spans *spanLog) (*measurement, error) {
	r, _, err := setUp(ctx, root, w, seed, spans)
	if err != nil {
		return nil, err
	}
	if spans != nil {
		spans.reset()
	}
	m := measure(ctx, r, w, seed, seconds)
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("closing rig: %w", err)
	}
	return m, nil
}

func executorsOf(w workload) int {
	if w.api {
		return apiShards
	}
	return fleetWorkers
}

// aloneRate is the paper's ΣX_j, the denominator of E = X_fleet / ΣX_j:
// what the workload's executors deliver together when each of them
// only searches — the workload's own kernel and space, one goroutine
// per executor, all at once as in the fleet, with no lease, RPC or WAL
// anywhere. Every goroutine searches about keys identifiers.
func aloneRate(ctx context.Context, w workload, seed int64, keys uint64) (float64, error) {
	in, err := newGenerator(w, seed, 0, true).next(w.maxLen)
	if err != nil {
		return 0, err
	}
	job, err := in.spec.CrackerJob()
	if err != nil {
		return 0, err
	}
	n := uint64(executorsOf(w))
	share := min(keys, in.size/n)
	pass := func(g uint64) error { // one executor's share of the space, its full-length tail
		iv := keyspace.NewInterval(int64(in.size-(g+1)*share), int64(in.size-g*share))
		_, err := cracker.CrackAll(ctx, job, iv, core.Options{Workers: 1})
		return err
	}
	// all runs every executor's passes at once and returns the sum of the
	// rates each achieved on its own clock: on a host whose cores differ
	// in speed from one minute to the next, the fleet's dynamic leasing
	// delivers that sum, not twice the slower core.
	all := func(passes uint64) (float64, error) {
		type done struct {
			rate float64
			err  error
		}
		results := make(chan done, n)
		for g := uint64(0); g < n; g++ {
			go func() {
				var err error
				t0 := time.Now()
				for p := uint64(0); p < passes && err == nil; p++ {
					err = pass(g)
				}
				results <- done{float64(passes*share) / time.Since(t0).Seconds(), err}
			}()
		}
		var sum float64
		var first error
		for g := uint64(0); g < n; g++ {
			d := <-results
			sum += d.rate
			if d.err != nil && first == nil {
				first = d.err
			}
		}
		return sum, first
	}
	passes := (keys + share - 1) / share
	// Unmeasured, and as long as the measurement: a core of the reference
	// host needs up to 0.7 s of load to reach full speed.
	if _, err := all(passes); err != nil {
		return 0, err
	}
	return all(passes)
}
