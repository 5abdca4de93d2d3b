package frame

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// faultyFile passes through to a real file until told to fail.
type faultyFile struct {
	File
	writeKeep   int // >= 0: the next Write lands this many bytes, then fails
	writeErr    error
	syncErr     error
	truncateErr error
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.writeKeep < 0 {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:min(f.writeKeep, len(p))])
	return n, f.writeErr
}

func (f *faultyFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.truncateErr != nil {
		return f.truncateErr
	}
	return f.File.Truncate(size)
}

func openTestLog(t *testing.T, path string, o LogOptions) *Log {
	t.Helper()
	o.Format = testFormat
	l, err := OpenLog(path, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// replaySeqs reopens the log at path and returns the sequences recovery
// applies past the watermark.
func replaySeqs(t *testing.T, path string, after uint64) ([]uint64, error) {
	t.Helper()
	var seqs []uint64
	err := openTestLog(t, path, LogOptions{NoSync: true}).Replay(after, func(fr Frame) error {
		seqs = append(seqs, fr.Seq)
		return nil
	})
	return seqs, err
}

// TestLogAppendFaultPolicy injects each append fault, appends again and
// reopens. The parent's wal.append returned on a short write or failed
// fsync without truncating or advancing its sequence, so the retry wrote
// the same sequence after a half-written tail and recovery refused the
// log; here the reopened log is always a clean contiguous prefix.
func TestLogAppendFaultPolicy(t *testing.T) {
	boom := errors.New("injected I/O error")
	cases := []struct {
		name     string
		fault    faultyFile
		poisoned bool
		want     int // frames a reopened log replays
	}{
		{"write fails outright", faultyFile{writeKeep: 0, writeErr: boom}, false, 3},
		{"write lands half a frame", faultyFile{writeKeep: 9, writeErr: boom}, false, 3},
		{"fsync fails", faultyFile{writeKeep: -1, syncErr: boom}, true, 3},
		{"write fails and so does the truncate-back", faultyFile{writeKeep: 9, writeErr: boom, truncateErr: boom}, true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l := openTestLog(t, path, LogOptions{})
			for i := 0; i < 2; i++ {
				if _, err := l.Append(1, []byte("committed")); err != nil {
					t.Fatal(err)
				}
			}
			real := l.f
			fault := tc.fault
			fault.File = real
			l.f = &fault
			if seq, err := l.Append(2, []byte("the faulted append")); err == nil {
				t.Fatalf("faulted append succeeded as sequence %d", seq)
			}
			if l.Seq() != 2 {
				t.Fatalf("failed append consumed a sequence: Seq = %d", l.Seq())
			}
			l.f = real // the fault was transient

			seq, err := l.Append(3, []byte("the retry"))
			switch {
			case tc.poisoned && err == nil:
				t.Fatal("append succeeded on a poisoned log")
			case tc.poisoned:
				if _, again := l.Append(3, nil); again != err {
					t.Fatalf("poison is not sticky: %v then %v", err, again)
				}
				if l.Reset(2) == nil {
					t.Fatal("Reset succeeded on a poisoned log")
				}
			case err != nil || seq != 3:
				t.Fatalf("retry after a repaired write: seq %d, %v", seq, err)
			}

			seqs, err := replaySeqs(t, path, 0)
			if err != nil {
				t.Fatalf("reopened log refused: %v", err)
			}
			if len(seqs) != tc.want {
				t.Fatalf("reopened log replays %v, want %d frames", seqs, tc.want)
			}
		})
	}
}

// TestLogResetAndWatermark: Reset empties the file and moves the
// sequence; replay past a watermark skips what the snapshot covers,
// whether or not the reset happened before the crash.
func TestLogResetAndWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	var synced int
	clock := time.Unix(0, 0)
	l := openTestLog(t, path, LogOptions{
		Now:    func() time.Time { clock = clock.Add(time.Millisecond); return clock },
		OnSync: func(d time.Duration) { synced += int(d / time.Millisecond) },
	})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if synced != 3 {
		t.Fatalf("fsyncs timed on the injected clock: %d ms, want 3", synced)
	}
	if seqs, err := replaySeqs(t, path, 2); err != nil || len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("replay past watermark 2: %v, %v", seqs, err)
	}
	if err := l.Reset(3); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append(1, nil); err != nil || seq != 4 {
		t.Fatalf("append after Reset(3): seq %d, %v", seq, err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != Overhead {
		t.Fatalf("reset log holds %v bytes (%v), want one empty frame", st.Size(), err)
	}
	if seqs, err := replaySeqs(t, path, 3); err != nil || len(seqs) != 1 || seqs[0] != 4 {
		t.Fatalf("replay of the reset log: %v, %v", seqs, err)
	}
	if _, err := replaySeqs(t, path, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a log that starts past the watermark: %v, want ErrCorrupt", err)
	}
	if _, err := l.Append(9, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("append of a type outside the format: %v, want ErrCorrupt", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, nil); !errors.Is(err, os.ErrClosed) || l.Close() != nil {
		t.Fatalf("append after Close: %v, want os.ErrClosed and a second Close that is a no-op", err)
	}
}

// TestWriteFileAtomic: the latest write wins, a failed write leaves the
// old file in place, and neither leaves a tmp behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	for _, data := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	// A directory squatting on the tmp name fails the write before the
	// rename.
	if err := os.Mkdir(path+".tmp", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("third")); err == nil {
		t.Fatal("write through a blocked tmp name succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Fatalf("after a failed write the file holds %q, %v", got, err)
	}
	if err := os.Remove(path + ".tmp"); err != nil { // the squatter is this test's, not a leftover
		t.Fatal(err)
	}
	// A non-empty directory at the destination fails the rename itself.
	full := filepath.Join(dir, "full")
	if err := os.MkdirAll(filepath.Join(full, "child"), 0o700); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(full, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	for _, p := range []string{path, full} {
		if _, err := os.Stat(p + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("%s.tmp left behind (stat err %v)", p, err)
		}
	}
}
