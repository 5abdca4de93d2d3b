package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"keysearch/internal/frame"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replayLog writes buf out as a WAL file and recovers it the way Open
// does, returning the last sequence, the size the file was repaired to,
// and the recovery error.
func replayLog(t *testing.T, buf []byte, after uint64, apply func(frame.Frame) error) (uint64, int64, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), walFile)
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := frame.OpenLog(path, frame.LogOptions{Format: walFormat, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rerr := l.Replay(after, apply)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return l.Seq(), st.Size(), rerr
}

// TestRecordRoundTrip: WAL frames decode back unchanged, one after
// another.
func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte(`{"a":1}`), {}, bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		buf = frame.Append(buf, byte(recSubmit), uint64(i+1), p)
	}
	r := bytes.NewReader(buf)
	for i, p := range payloads {
		rec, err := frame.Read(r, walFormat)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Type != byte(recSubmit) || rec.Seq != uint64(i+1) || !bytes.Equal(rec.Payload, p) {
			t.Fatalf("record %d mangled: %+v", i, rec)
		}
	}
	if _, err := frame.Read(r, walFormat); err != io.EOF {
		t.Fatalf("end of log: got %v, want io.EOF", err)
	}
}

// TestReadRecordTornVsCorrupt: every truncation point inside a record is
// frame.ErrTorn (repairable crash residue); byte damage is frame.ErrCorrupt.
func TestReadRecordTornVsCorrupt(t *testing.T) {
	enc := frame.Append(nil, byte(recState), 7, []byte(`{"id":"j1"}`))
	for cut := 1; cut < len(enc); cut++ {
		_, err := frame.Read(bytes.NewReader(enc[:cut]), walFormat)
		if !errors.Is(err, frame.ErrTorn) {
			t.Fatalf("cut at %d/%d: got %v, want frame.ErrTorn", cut, len(enc), err)
		}
	}
	for i := range enc {
		damaged := append([]byte(nil), enc...)
		damaged[i] ^= 0x40
		_, err := frame.Read(bytes.NewReader(damaged), walFormat)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	// Oversized length prefix must be rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, byte(recSubmit), 0, 0, 0, 0, 0, 0, 0, 1}
	if _, err := frame.Read(bytes.NewReader(huge), walFormat); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("oversized payload: got %v, want frame.ErrCorrupt", err)
	}
	// Unknown record type.
	bad := frame.Append(nil, 99, 1, nil)
	if _, err := frame.Read(bytes.NewReader(bad), walFormat); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("unknown type: got %v, want frame.ErrCorrupt", err)
	}
}

// TestReplayLogTornTail: a log whose last record is cut short replays
// the clean prefix without error and reports the truncation offset.
func TestReplayLogTornTail(t *testing.T) {
	var buf []byte
	buf = frame.Append(buf, byte(recSubmit), 1, []byte(`1`))
	buf = frame.Append(buf, byte(recSubmit), 2, []byte(`2`))
	clean := int64(len(buf))
	buf = append(buf, frame.Append(nil, byte(recSubmit), 3, []byte(`3`))[:5]...)

	var got []uint64
	last, off, err := replayLog(t, buf, 0, func(r frame.Frame) error {
		got = append(got, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 2 || off != clean {
		t.Fatalf("last=%d off=%d, want last=2 off=%d", last, off, clean)
	}
	if len(got) != 2 {
		t.Fatalf("applied %v, want seqs 1,2", got)
	}
}

// TestReplayLogRejectsReordered: sequence gaps and repeats are corrupt,
// not torn — a spliced log must not replay.
func TestReplayLogRejectsReordered(t *testing.T) {
	cases := map[string][]uint64{
		"gap":      {1, 3},
		"repeat":   {1, 1},
		"backward": {2, 1},
	}
	for name, seqs := range cases {
		var buf []byte
		for _, q := range seqs {
			buf = frame.Append(buf, byte(recSubmit), q, []byte(`{}`))
		}
		_, _, err := replayLog(t, buf, 0, func(frame.Frame) error { return nil })
		if !errors.Is(err, frame.ErrCorrupt) {
			t.Errorf("%s (%v): got %v, want frame.ErrCorrupt", name, seqs, err)
		}
	}
}

// TestReplayLogSnapshotWatermark: records at or below the watermark are
// skipped (crash between snapshot rename and log truncation), records
// above it apply.
func TestReplayLogSnapshotWatermark(t *testing.T) {
	var buf []byte
	for q := uint64(1); q <= 5; q++ {
		buf = frame.Append(buf, byte(recState), q, []byte(`{}`))
	}
	var got []uint64
	last, off, err := replayLog(t, buf, 3, func(r frame.Frame) error {
		got = append(got, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 5 || off != int64(len(buf)) {
		t.Fatalf("last=%d off=%d, want 5, %d", last, off, len(buf))
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("applied %v, want [4 5]", got)
	}
}

// TestReplayLogApplyErrorAborts: a record that fails to apply aborts
// recovery with that error rather than skipping it.
func TestReplayLogApplyErrorAborts(t *testing.T) {
	var buf []byte
	buf = frame.Append(buf, byte(recSubmit), 1, []byte(`{}`))
	buf = frame.Append(buf, byte(recSubmit), 2, []byte(`{}`))
	boom := errors.New("boom")
	applied := 0
	_, _, err := replayLog(t, buf, 0, func(r frame.Frame) error {
		applied++
		if r.Seq == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if applied != 2 {
		t.Fatalf("applied %d records, want 2", applied)
	}
}
