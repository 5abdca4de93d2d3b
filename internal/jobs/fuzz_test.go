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

// walHeaderLen is the frame header (length, type, sequence) ahead of a
// record's payload.
const walHeaderLen = frame.Overhead - 4

// fuzzSeedWAL builds a small valid log: submit, transition, checkpoint.
func fuzzSeedWAL(tb testing.TB) []byte {
	tb.Helper()
	spec := testSpec()
	sub, err := json.Marshal(submitRecord{ID: "j1", Tenant: "t", Spec: spec, At: 1})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := json.Marshal(stateRecord{ID: "j1", To: StateRunning, At: 2})
	if err != nil {
		tb.Fatal(err)
	}
	var buf []byte
	buf = frame.Append(buf, byte(recSubmit), 1, sub)
	buf = frame.Append(buf, byte(recState), 2, st)
	return buf
}

// FuzzWALRecord: arbitrary bytes through the frame decoder under the
// WAL's format (its type space and payload cap) must never panic or
// over-allocate; every failure is classified as torn, corrupt or clean
// EOF; and whatever decodes re-encodes to the bytes consumed. The
// framing itself is fuzzed structure-aware by frame.FuzzFrame.
func FuzzWALRecord(f *testing.F) {
	good := frame.Append(nil, byte(recCheckpoint), 42, []byte(`{"id":"j1"}`))
	f.Add(good)
	f.Add(good[:len(good)-2])                                             // torn trailer
	f.Add(good[:walHeaderLen-1])                                          // torn header
	f.Add([]byte{})                                                       // clean EOF
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(recSubmit), 0, 0, 0, 0, 0}) // oversized length
	damaged := append([]byte(nil), good...)
	damaged[walHeaderLen+3] ^= 0x10
	f.Add(damaged) // checksum mismatch
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := frame.Read(bytes.NewReader(data), walFormat)
		if err != nil {
			if err != io.EOF && !errors.Is(err, frame.ErrTorn) && !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		enc := frame.Append(nil, rec.Type, rec.Seq, rec.Payload)
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatal("decoded record does not re-encode to the consumed bytes")
		}
	})
}

// FuzzWALRecover: an arbitrary byte string used as the job log must
// never panic recovery. Either Open fails with an error, or it
// succeeds and the recovered table satisfies the package invariant.
// Corrupt, truncated and reordered mutations of a valid log are seeded
// explicitly.
func FuzzWALRecover(f *testing.F) {
	valid := fuzzSeedWAL(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[walHeaderLen+1] ^= 0x08
	f.Add(corrupt)
	// Reordered: the two records swapped.
	boundary := 0
	r := bytes.NewReader(valid)
	rec, err := frame.Read(r, walFormat)
	if err != nil {
		f.Fatal(err)
	}
	boundary = frame.Overhead + len(rec.Payload)
	f.Add(append(append([]byte(nil), valid[boundary:]...), valid[:boundary]...))
	// Duplicate submit under fresh sequence numbers: framing is fine,
	// the table-level invariant must reject it.
	sub, _ := json.Marshal(submitRecord{ID: "j1", Tenant: "t", Spec: testSpec(), At: 1})
	var dup []byte
	dup = frame.Append(dup, byte(recSubmit), 1, sub)
	dup = frame.Append(dup, byte(recSubmit), 2, sub)
	f.Add(dup)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, StoreOptions{NoSync: true})
		if err != nil {
			return // rejected, never panicked
		}
		if !checkConsistent(t, s, 0, len(data)) {
			t.Fatal("recovered table violates the store invariant")
		}
		s.Close()
	})
}
