package netproto

import (
	"net"
	"sync"
	"time"

	"keysearch/internal/telemetry"
)

// netTelemetry caches the protocol's metric handles so the frame paths
// pay registry lookups once per connection, not once per frame. Both
// sides of the protocol use it: the master counts pings sent and pongs
// received (and their round trips), the worker the mirror image. All
// handles are nil when telemetry is disabled; the telemetry package's
// nil-receiver methods keep every call a single branch.
type netTelemetry struct {
	reg        *telemetry.Registry
	sent       *telemetry.Counter   // frames written
	recv       *telemetry.Counter   // frames read
	pings      *telemetry.Counter   // MsgPing frames
	pongs      *telemetry.Counter   // MsgPong frames
	retries    *telemetry.Counter   // call retry attempts after transport failures
	reconnects *telemetry.Counter   // rejoins replacing a broken connection
	requeues   *telemetry.Counter   // MsgRequeue hand-backs
	progress   *telemetry.Counter   // MsgProgress marks sent (worker) / applied (master)
	shrinks    *telemetry.Counter   // shrink handshakes honored (acked OK)
	rtt        *telemetry.Histogram // ping → pong round trip, ns
}

func newNetTelemetry(reg *telemetry.Registry) *netTelemetry {
	nt := &netTelemetry{reg: reg}
	if reg == nil {
		return nt
	}
	nt.sent = reg.Counter(telemetry.MetricNetFramesSent)
	nt.recv = reg.Counter(telemetry.MetricNetFramesRecv)
	nt.pings = reg.Counter(telemetry.MetricNetPings)
	nt.pongs = reg.Counter(telemetry.MetricNetPongs)
	nt.retries = reg.Counter(telemetry.MetricNetRetries)
	nt.reconnects = reg.Counter(telemetry.MetricNetReconnects)
	nt.requeues = reg.Counter(telemetry.MetricNetRequeues)
	nt.progress = reg.Counter(telemetry.MetricNetProgress)
	nt.shrinks = reg.Counter(telemetry.MetricNetShrinks)
	nt.rtt = reg.Histogram(telemetry.MetricNetPingRTT)
	return nt
}

// writer returns WriteFrame on conn for goroutines to share: one frame at
// a time, each bounded by timeout and counted once it went out.
func (nt *netTelemetry) writer(conn net.Conn, timeout time.Duration) func(MsgType, []byte) error {
	var mu sync.Mutex
	return func(t MsgType, p []byte) error {
		mu.Lock()
		defer mu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
		err := WriteFrame(conn, t, p)
		_ = conn.SetWriteDeadline(time.Time{})
		if err == nil {
			nt.sent.Inc()
		}
		return err
	}
}
