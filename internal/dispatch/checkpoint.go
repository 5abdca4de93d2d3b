package dispatch

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/big"
	"os"

	"keysearch/internal/frame"
	"keysearch/internal/keyspace"
)

// Checkpoint is a serializable snapshot of a dispatch search: the
// identifier intervals not yet (or not provably) searched, plus the
// results so far. §III covers worker failures; a checkpoint extends the
// fault model to the master itself — persist it and resume in a new
// process. In-flight chunks are included in Remaining, so a crash between
// snapshots re-searches at most one round of chunks and never skips keys.
type Checkpoint struct {
	Remaining []CheckpointInterval `json:"remaining"`
	Found     [][]byte             `json:"found,omitempty"`
	Tested    uint64               `json:"tested"`
}

// CheckpointInterval is one [Start, End) identifier range, in decimal so
// that arbitrarily large spaces serialize exactly.
type CheckpointInterval struct {
	Start string `json:"start"`
	End   string `json:"end"`
}

// RemainingKeys sums the unsearched identifiers.
func (cp *Checkpoint) RemainingKeys() *big.Int {
	total := new(big.Int)
	for _, r := range cp.Remaining {
		iv, err := r.interval()
		if err != nil {
			continue
		}
		total.Add(total, iv.Len())
	}
	return total
}

// Done reports whether nothing remains.
func (cp *Checkpoint) Done() bool { return cp.RemainingKeys().Sign() == 0 }

// checkpointFile is the on-disk form: the checkpoint plus a CRC32 of its
// canonical JSON encoding. A checkpoint is the sole record of which
// identifiers still need searching — silently loading a corrupted one
// could skip part of the space — so Load verifies the sum and fails
// cleanly on any byte damage.
type checkpointFile struct {
	Checkpoint
	Sum string `json:"sum,omitempty"`
}

func checkpointSum(cp *Checkpoint) (string, error) {
	body, err := json.Marshal(cp)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(body)), nil
}

// Marshal encodes the checkpoint as JSON with an integrity checksum.
func (cp *Checkpoint) Marshal() ([]byte, error) {
	sum, err := checkpointSum(cp)
	if err != nil {
		return nil, err
	}
	return json.Marshal(checkpointFile{Checkpoint: *cp, Sum: sum})
}

// LoadCheckpoint decodes a JSON checkpoint, verifying its checksum: a
// corrupted file is rejected rather than resumed from (a flipped byte in
// an interval bound would silently skip part of the space).
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("dispatch: bad checkpoint: %w", err)
	}
	if file.Sum == "" {
		return nil, fmt.Errorf("dispatch: bad checkpoint: missing checksum")
	}
	want, err := checkpointSum(&file.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("dispatch: bad checkpoint: %w", err)
	}
	if file.Sum != want {
		return nil, fmt.Errorf("dispatch: bad checkpoint: checksum mismatch (file %s, content %s)", file.Sum, want)
	}
	cp := file.Checkpoint
	for _, r := range cp.Remaining {
		if _, err := r.interval(); err != nil {
			return nil, err
		}
	}
	return &cp, nil
}

func (r CheckpointInterval) interval() (keyspace.Interval, error) {
	start, ok := new(big.Int).SetString(r.Start, 10)
	if !ok {
		return keyspace.Interval{}, fmt.Errorf("dispatch: bad interval start %q", r.Start)
	}
	end, ok := new(big.Int).SetString(r.End, 10)
	if !ok {
		return keyspace.Interval{}, fmt.Errorf("dispatch: bad interval end %q", r.End)
	}
	return keyspace.Interval{Start: start, End: end}, nil
}

func checkpointInterval(iv keyspace.Interval) CheckpointInterval {
	return CheckpointInterval{Start: iv.Start.String(), End: iv.End.String()}
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
		cp.Remaining = append(cp.Remaining, checkpointInterval(iv))
	}
	return cp
}

// Intervals decodes the checkpoint's remaining set back into intervals.
func (cp *Checkpoint) Intervals() ([]keyspace.Interval, error) {
	out := make([]keyspace.Interval, 0, len(cp.Remaining))
	for _, r := range cp.Remaining {
		iv, err := r.interval()
		if err != nil {
			return nil, err
		}
		out = append(out, iv)
	}
	return out, nil
}

// WriteCheckpointFile persists the checkpoint atomically
// (frame.WriteFileAtomic), so a crash mid-write leaves either the old
// checkpoint or the new one — never a torn file. A torn file would be
// rejected by LoadCheckpoint's checksum anyway, but rejecting the only
// copy of the remaining set is still losing it; atomic replacement keeps
// the previous good snapshot.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	data, err := cp.Marshal()
	if err != nil {
		return err
	}
	return frame.WriteFileAtomic(path, data)
}

// ReadCheckpointFile loads and verifies a checkpoint written by
// WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadCheckpoint(data)
}
