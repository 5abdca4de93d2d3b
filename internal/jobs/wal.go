package jobs

import (
	"keysearch/internal/dispatch"
	"keysearch/internal/frame"
)

// The WAL is a frame.Log: CRC-framed records with strictly increasing
// sequence numbers, so any byte damage — a flipped bit, a truncated
// tail, a spliced record — fails recovery rather than replaying. The
// snapshot records the sequence it covers, so a crash between snapshot
// rename and log truncation replays nothing twice.

// recType identifies a WAL record.
type recType byte

const (
	recSubmit     recType = iota + 1 // payload: submitRecord JSON
	recState                         // payload: stateRecord JSON
	recCheckpoint                    // payload: checkpointRecord JSON
)

// walFormat is the WAL's frame format: its three record types, and a
// payload bound past which a length is corruption, not an allocation.
var walFormat = frame.Format{Types: byte(recCheckpoint), MaxPayload: 1 << 24}

// Payload shapes. All payloads are JSON inside the CRC frame.

// submitRecord logs a job's admission into the table.
type submitRecord struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	Spec     Spec   `json:"spec"`
	At       int64  `json:"at_unix_ns"`
}

// stateRecord logs one lifecycle transition.
type stateRecord struct {
	ID     string `json:"id"`
	To     State  `json:"to"`
	Reason string `json:"reason,omitempty"`
	At     int64  `json:"at_unix_ns"`
}

// checkpointRecord logs a job's resumable progress: the dispatch
// checkpoint (remaining intervals, tested count, found keys) after a
// committed lease.
type checkpointRecord struct {
	ID string              `json:"id"`
	CP dispatch.Checkpoint `json:"cp"`
	At int64               `json:"at_unix_ns"`
}
