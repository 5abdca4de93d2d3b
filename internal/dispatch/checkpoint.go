package dispatch

import (
	"encoding/json"
	"fmt"
	"math"

	"keysearch/internal/keyspace"
)

// Checkpoint is a job's resumable progress as the job store
// (internal/jobs) logs it: the identifier intervals not yet (or not
// provably) searched, plus the results so far. §III covers worker
// failures; persisting this extends the fault model to the master itself.
// In-flight leases are included in Remaining, so a crash between records
// re-searches at most the leases in flight and never skips keys.
//
// The JSON form (checkpointWire) is the payload of the store's WAL
// checkpoint records and snapshot entries; the intervals are decoded — or
// refused — once, at that boundary. Whether the set fits a given job's
// space is the store's check.
type Checkpoint struct {
	Remaining []keyspace.Interval
	Found     [][]byte
	Tested    uint64
}

// checkpointWire is Checkpoint on disk. Interval bounds travel as decimal
// strings, so that every 128-bit identifier serializes exactly; existing
// jobs.wal and jobs.snap files hold these bytes, so they must not change.
type checkpointWire struct {
	Remaining []intervalWire `json:"remaining"`
	Found     [][]byte       `json:"found,omitempty"`
	Tested    uint64         `json:"tested"`
}

type intervalWire struct {
	Start string `json:"start"`
	End   string `json:"end"`
}

func (cp Checkpoint) MarshalJSON() ([]byte, error) {
	w := checkpointWire{Found: cp.Found, Tested: cp.Tested}
	if n := len(cp.Remaining); n > 0 {
		w.Remaining = make([]intervalWire, n)
	}
	for i, iv := range cp.Remaining {
		w.Remaining[i] = intervalWire{Start: iv.Start.String(), End: iv.End.String()}
	}
	return json.Marshal(w)
}

// UnmarshalJSON refuses a bound that is not a decimal integer below 2^128.
func (cp *Checkpoint) UnmarshalJSON(data []byte) error {
	var w checkpointWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*cp = Checkpoint{Found: w.Found, Tested: w.Tested}
	if n := len(w.Remaining); n > 0 {
		cp.Remaining = make([]keyspace.Interval, n)
	}
	for i, iw := range w.Remaining {
		start, err1 := keyspace.ParseID(iw.Start)
		end, err2 := keyspace.ParseID(iw.End)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("dispatch: bad checkpoint interval bounds %q, %q", iw.Start, iw.End)
		}
		cp.Remaining[i] = keyspace.Interval{Start: start, End: end}
	}
	return nil
}

// RemainingKeys sums the unsearched identifiers. A sum of 2^128 or more,
// which only overlapping intervals reach, reads as 2^128 - 1.
func (cp *Checkpoint) RemainingKeys() keyspace.ID {
	var total keyspace.ID
	for _, iv := range cp.Remaining {
		var over bool
		if total, over = total.Add(iv.Len()); over {
			return keyspace.ID{Hi: math.MaxUint64, Lo: math.MaxUint64}
		}
	}
	return total
}

// NewCheckpoint builds a checkpoint from explicit remaining intervals and
// accumulated results — the constructor the job service uses to persist
// each job's resumable state into its WAL.
func NewCheckpoint(remaining []keyspace.Interval, tested uint64, found [][]byte) *Checkpoint {
	cp := &Checkpoint{Tested: tested}
	for _, f := range found {
		cp.Found = append(cp.Found, append([]byte(nil), f...))
	}
	for _, iv := range remaining {
		if iv.Empty() {
			continue
		}
		cp.Remaining = append(cp.Remaining, iv)
	}
	return cp
}
