package telemetry

import (
	"context"
	"fmt"
	"time"
)

// StatusLine renders the pipeline's conventional metrics as one compact
// line — what the CLIs log periodically. Only sections with data are
// printed, so a worker process (core.* and net.* only), a master process
// (jobs.* and net.*) and an in-process dispatcher (dispatch.*) all
// produce sensible lines.
func StatusLine(s *Snapshot) string {
	line := ""
	if tested, ok := s.Counters[MetricDispatchTested]; ok {
		line += fmt.Sprintf("tested=%d", tested)
		if m, ok := s.Meters[MetricDispatchRate]; ok {
			line += fmt.Sprintf(" rate=%.2fMK/s", m.Rate/1e6)
		}
		if rq := s.Counters[MetricDispatchRequeues]; rq > 0 {
			line += fmt.Sprintf(" requeues=%d retested=%d", rq, s.Counters[MetricDispatchRetested])
		}
	} else if leases, ok := s.Counters[MetricJobsLeases]; ok {
		line += fmt.Sprintf("tested=%d leases=%d", s.SumPrefix(MetricJobsTenantServed+"."), leases)
		if rq := s.Counters[MetricJobsRequeues] + s.Counters[MetricJobsExpired]; rq > 0 {
			line += fmt.Sprintf(" requeues=%d retested=%d", rq, s.Counters[MetricJobsRequeuedKeys])
		}
	} else if tested, ok := s.Counters[MetricCoreTested]; ok {
		line += fmt.Sprintf("tested=%d", tested)
		if m, ok := s.Meters[MetricCoreRate]; ok {
			line += fmt.Sprintf(" rate=%.2fMK/s", m.Rate/1e6)
		}
	}
	if sent, ok := s.Counters[MetricNetFramesSent]; ok {
		line += fmt.Sprintf(" frames=%d/%d", sent, s.Counters[MetricNetFramesRecv])
		if rc := s.Counters[MetricNetReconnects]; rc > 0 {
			line += fmt.Sprintf(" reconnects=%d", rc)
		}
		if rt := s.Counters[MetricNetRetries]; rt > 0 {
			line += fmt.Sprintf(" retries=%d", rt)
		}
		if h, ok := s.Histograms[MetricNetPingRTT]; ok && h.Count > 0 {
			line += fmt.Sprintf(" rtt_p50=%s", time.Duration(h.P50).Round(time.Microsecond))
		}
	}
	if line == "" {
		line = "no activity"
	}
	return line
}

// StartLogger emits a status line for the registry every interval until
// ctx is cancelled, via the sink (e.g. a log.Printf wrapper). It
// returns immediately; the returned stop function cancels the loop
// without waiting for ctx.
func StartLogger(ctx context.Context, r *Registry, every time.Duration, sink func(string)) (stop func()) {
	if every <= 0 {
		every = 5 * time.Second
	}
	ctx, cancel := context.WithCancel(ctx)
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				sink(StatusLine(r.Snapshot()))
			}
		}
	}()
	return cancel
}
