package telemetry

import (
	"sync"
	"time"
)

// EventType classifies a trace event. The set mirrors the lifecycle of
// a dispatched chunk plus the transport-level incidents around it.
type EventType uint8

// Event types emitted by the pipeline.
const (
	// EventDispatch: a chunk of N identifiers was issued to Node.
	EventDispatch EventType = iota + 1
	// EventGather: Node returned a result covering N identifiers.
	EventGather
	// EventRequeue: Node was declared dead and its in-flight chunk of N
	// identifiers returned to the pool.
	EventRequeue
	// EventHeartbeat: a ping/pong round with Node completed; N is the
	// sequence number.
	EventHeartbeat
	// EventRetry: a call to Node failed and is being retried; N is the
	// attempt number.
	EventRetry
	// EventReconnect: Node re-registered and its fresh connection
	// replaced the broken one.
	EventReconnect
	// EventJoin: Node registered.
	EventJoin
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventDispatch:
		return "dispatch"
	case EventGather:
		return "gather"
	case EventRequeue:
		return "requeue"
	case EventHeartbeat:
		return "heartbeat"
	case EventRetry:
		return "retry"
	case EventReconnect:
		return "reconnect"
	case EventJoin:
		return "join"
	default:
		return "unknown"
	}
}

// MarshalText renders the type as its name in JSON snapshots.
func (t EventType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// Event is one entry of the structured trace.
type Event struct {
	// At is the monotonic offset from the trace's start.
	At time.Duration `json:"at_ns"`
	// Type classifies the event.
	Type EventType `json:"type"`
	// Node names the worker/tree node involved, if any.
	Node string `json:"node,omitempty"`
	// N is the event's count payload: chunk size in identifiers for
	// dispatch/gather/requeue, sequence or attempt number otherwise.
	N uint64 `json:"n,omitempty"`
	// Detail carries a short free-form annotation (an error string, a
	// requeue reason).
	Detail string `json:"detail,omitempty"`
}

// Trace is a fixed-capacity ring of events. When full, the oldest
// events are overwritten and counted as dropped — the trace is a flight
// recorder, not a durable log.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewTrace returns a trace holding up to capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{start: time.Now(), buf: make([]Event, capacity)}
}

// Record appends an event stamped with the current monotonic offset.
func (tr *Trace) Record(typ EventType, node string, n uint64, detail string) {
	if tr == nil {
		return
	}
	at := time.Since(tr.start)
	tr.mu.Lock()
	if tr.wrapped {
		tr.dropped++
	}
	tr.buf[tr.next] = Event{At: at, Type: typ, Node: node, N: n, Detail: detail}
	tr.next++
	if tr.next == len(tr.buf) {
		tr.next = 0
		tr.wrapped = true
	}
	tr.mu.Unlock()
}

// Events returns the retained events in recording order.
func (tr *Trace) Events() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.wrapped {
		return append([]Event(nil), tr.buf[:tr.next]...)
	}
	out := make([]Event, 0, len(tr.buf))
	out = append(out, tr.buf[tr.next:]...)
	out = append(out, tr.buf[:tr.next]...)
	return out
}

// Len returns the number of retained events.
func (tr *Trace) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.wrapped {
		return len(tr.buf)
	}
	return tr.next
}

// Dropped returns how many events were overwritten.
func (tr *Trace) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dropped
}
