package jobs

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"keysearch/internal/dispatch"
	"keysearch/internal/frame"
	"keysearch/internal/keyspace"
	"keysearch/internal/telemetry"
)

// testSpec is a tiny two-letter space: charset "ab", lengths 1..3,
// 2+4+8 = 14 keys, target md5("ba").
func testSpec() Spec {
	sum := md5.Sum([]byte("ba"))
	return Spec{Algorithm: "md5", Target: hex.EncodeToString(sum[:]), Charset: "ab", MinLen: 1, MaxLen: 3}
}

func testStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, StoreOptions{NoSync: true, Clock: &tickClock{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// cut carves n keys off the front of the job's remaining set and
// returns the checkpoint that records them as tested.
func cut(t *testing.T, s *Store, id string, n int64) *dispatch.Checkpoint {
	t.Helper()
	cp, err := s.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	ivs := cp.Remaining
	if len(ivs) == 0 {
		t.Fatalf("job %s has nothing remaining", id)
	}
	head, tail := ivs[0].Take(uint64(n))
	taken, _ := head.Len64()
	rest := append([]keyspace.Interval{tail}, ivs[1:]...)
	return dispatch.NewCheckpoint(rest, cp.Tested+taken, cp.Found)
}

func TestStoreSubmitGetList(t *testing.T) {
	s := testStore(t, t.TempDir())
	a, err := s.Submit("alice", 1, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit("bob", 2, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatalf("duplicate IDs: %s", a.ID)
	}
	if a.State != StatePending || a.Space != "14" || a.Remaining != "14" || a.Tested != 0 {
		t.Fatalf("fresh job wrong: %+v", a)
	}
	got, err := s.Get(a.ID)
	if err != nil || got.Tenant != "alice" {
		t.Fatalf("Get: %+v, %v", got, err)
	}
	if l := s.List(""); len(l) != 2 || l[0].ID != a.ID || l[1].ID != b.ID {
		t.Fatalf("List all: %+v", l)
	}
	if l := s.List("bob"); len(l) != 1 || l[0].ID != b.ID {
		t.Fatalf("List bob: %+v", l)
	}
	if _, err := s.Get("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing job: %v", err)
	}
	if ts := s.Tenants(); len(ts) != 2 || ts[0] != "alice" || ts[1] != "bob" {
		t.Fatalf("Tenants: %v", ts)
	}
}

func TestStoreSubmitValidation(t *testing.T) {
	s := testStore(t, t.TempDir())
	if _, err := s.Submit("", 0, testSpec()); err == nil {
		t.Error("empty tenant accepted")
	}
	bad := testSpec()
	bad.Target = "zz"
	if _, err := s.Submit("t", 0, bad); err == nil {
		t.Error("bad digest accepted")
	}
	bad = testSpec()
	bad.Algorithm = "rot13"
	if _, err := s.Submit("t", 0, bad); err == nil {
		t.Error("bad algorithm accepted")
	}
}

func TestStoreLifecycle(t *testing.T) {
	s := testStore(t, t.TempDir())
	j, err := s.Submit("t", 0, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []State{StateRunning, StatePaused, StatePending, StateRunning, StateDone} {
		if _, err := s.SetState(j.ID, to, ""); err != nil {
			t.Fatalf("-> %s: %v", to, err)
		}
	}
	if _, err := s.SetState(j.ID, StateRunning, ""); !errors.Is(err, ErrTransition) {
		t.Fatalf("transition out of terminal: %v", err)
	}
	if err := s.RecordCheckpoint(j.ID, cut(t, s, j.ID, 2)); err == nil {
		t.Error("checkpoint accepted in terminal state")
	}
	if _, err := s.SetState(j.ID, State(42), ""); !errors.Is(err, ErrTransition) {
		t.Fatalf("invalid target state: %v", err)
	}
}

func TestStoreCheckpointProgress(t *testing.T) {
	s := testStore(t, t.TempDir())
	j, _ := s.Submit("t", 0, testSpec())
	s.SetState(j.ID, StateRunning, "")

	cp := cut(t, s, j.ID, 5)
	cp.Found = [][]byte{[]byte("ba")}
	if err := s.RecordCheckpoint(j.ID, cp); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(j.ID)
	if got.Tested != 5 || got.Remaining != "9" {
		t.Fatalf("after checkpoint: tested=%d remaining=%s", got.Tested, got.Remaining)
	}
	if len(got.Found) != 1 || got.Found[0] != "ba" {
		t.Fatalf("found: %v", got.Found)
	}

	// Tested must be monotonic; coverage must never exceed the space.
	back := dispatch.NewCheckpoint(nil, 3, nil)
	if err := s.RecordCheckpoint(j.ID, back); err == nil {
		t.Error("tested went backwards, accepted")
	}
	over := cut(t, s, j.ID, 2)
	over.Tested = 14 // remaining still 7: 14+7 > 14
	if err := s.RecordCheckpoint(j.ID, over); err == nil {
		t.Error("coverage beyond space accepted")
	}
	if err := s.RecordCheckpoint("nope", cp); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: %v", err)
	}
}

// reopen simulates a crash: the old store is NOT closed; a second store
// opens the same directory from what reached the files.
func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func sameTable(t *testing.T, a, b *Store) {
	t.Helper()
	la, lb := a.List(""), b.List("")
	if len(la) != len(lb) {
		t.Fatalf("table sizes differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		x, y := la[i], lb[i]
		if x.ID != y.ID || x.Tenant != y.Tenant || x.Priority != y.Priority ||
			x.State != y.State || x.Tested != y.Tested || x.Remaining != y.Remaining ||
			x.Space != y.Space || len(x.Found) != len(y.Found) ||
			!x.SubmittedAt.Equal(y.SubmittedAt) || !x.UpdatedAt.Equal(y.UpdatedAt) {
			t.Fatalf("job %d differs:\n  %+v\n  %+v", i, x, y)
		}
	}
}

func TestStoreRecoverAfterKill(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	a, _ := s.Submit("alice", 1, testSpec())
	b, _ := s.Submit("bob", 2, testSpec())
	s.SetState(a.ID, StateRunning, "")
	s.SetState(b.ID, StateRunning, "")
	if err := s.RecordCheckpoint(a.ID, cut(t, s, a.ID, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordCheckpoint(b.ID, cut(t, s, b.ID, 3)); err != nil {
		t.Fatal(err)
	}
	s.SetState(b.ID, StatePaused, "operator")

	// Kill: no Close, no flush beyond what append already wrote.
	s2 := reopen(t, dir)
	sameTable(t, s, s2)
	cp, err := s2.Progress(a.ID)
	if err != nil || cp.Tested != 6 || cp.RemainingKeys().String() != "8" {
		t.Fatalf("recovered progress: %+v, %v", cp, err)
	}
	// The recovered store keeps working and its writes survive another
	// reopen.
	if err := s2.RecordCheckpoint(a.ID, cut(t, s2, a.ID, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.SetState(a.ID, StateDone, ""); err != nil {
		t.Fatal(err)
	}
	s3 := reopen(t, dir)
	sameTable(t, s2, s3)
	done, _ := s3.Get(a.ID)
	if done.State != StateDone || done.Tested != 14 || done.Remaining != "0" {
		t.Fatalf("after resume: %+v", done)
	}
}

func TestStoreTornTailRepaired(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	j, _ := s.Submit("t", 0, testSpec())
	s.SetState(j.ID, StateRunning, "")
	s.Close()

	// A crash mid-append leaves a partial frame at the tail.
	path := filepath.Join(dir, walFile)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), clean...), frame.Append(nil, byte(recState), 99, []byte(`{"id":"x"}`))[:7]...)
	if err := os.WriteFile(path, torn, 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, dir)
	got, err := s2.Get(j.ID)
	if err != nil || got.State != StateRunning {
		t.Fatalf("recovered: %+v, %v", got, err)
	}
	// The tail was truncated, so the next append lands on a record
	// boundary and a further reopen still works.
	if after, err := os.ReadFile(path); err != nil || len(after) != len(clean) {
		t.Fatalf("tail not truncated: %d bytes, want %d (%v)", len(after), len(clean), err)
	}
	if _, err := s2.SetState(j.ID, StateDone, ""); err != nil {
		t.Fatal(err)
	}
	s3 := reopen(t, dir)
	sameTable(t, s2, s3)
}

func TestStoreCorruptLogRefused(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	s.Submit("t", 0, testSpec())
	s.Submit("t", 0, testSpec())
	s.Close()

	path := filepath.Join(dir, walFile)
	data, _ := os.ReadFile(path)
	data[walHeaderLen+2] ^= 0x20 // damage the first record's payload
	os.WriteFile(path, data, 0o600)
	if _, err := Open(dir, StoreOptions{NoSync: true}); err == nil {
		t.Fatal("corrupt log accepted")
	}
}

func TestStoreReorderedLogRefused(t *testing.T) {
	dir := t.TempDir()
	sr1 := mustJSON(t, submitRecord{ID: "j1", Tenant: "t", Spec: testSpec(), At: 1})
	sr3 := mustJSON(t, submitRecord{ID: "j3", Tenant: "t", Spec: testSpec(), At: 3})
	var buf []byte
	buf = frame.Append(buf, byte(recSubmit), 1, sr1)
	buf = frame.Append(buf, byte(recSubmit), 3, sr3) // gap: seq 2 missing
	os.WriteFile(filepath.Join(dir, walFile), buf, 0o600)
	if _, err := Open(dir, StoreOptions{NoSync: true}); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("spliced log: %v, want ErrCorrupt", err)
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	a, _ := s.Submit("alice", 1, testSpec())
	b, _ := s.Submit("bob", 0, testSpec())
	s.SetState(a.ID, StateRunning, "")
	s.RecordCheckpoint(a.ID, cut(t, s, a.ID, 4))
	walBefore, _ := os.ReadFile(filepath.Join(dir, walFile))

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, walFile)); err != nil || st.Size() != 0 {
		t.Fatalf("WAL not truncated: %v, %v", st, err)
	}
	// Mutations after compaction land in the (empty) log; recovery uses
	// snapshot + suffix.
	s.SetState(b.ID, StateCancelled, "not needed")
	s2 := reopen(t, dir)
	sameTable(t, s, s2)

	// Crash between snapshot rename and WAL truncation: the old log is
	// still there in full, but replay skips everything the snapshot
	// covers — nothing applies twice.
	if err := os.WriteFile(filepath.Join(dir, walFile), walBefore, 0o600); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got, _ := s3.Get(a.ID)
	if got.Tested != 4 || got.Remaining != "10" {
		t.Fatalf("snapshot+stale-log replay: %+v", got)
	}
}

// TestStoreSnapshotKeepsTableOrder: a compacted-and-reopened store lists
// jobs in submission order past j999999, as WAL replay does; admission
// breaks ties by that order.
func TestStoreSnapshotKeepsTableOrder(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	if err := s.log.Reset(999997); err != nil {
		t.Fatal(err)
	}
	var want []string
	for range 3 {
		j, err := s.Submit("t", 0, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j.ID)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range reopen(t, dir).List("") {
		got = append(got, j.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("reopened table order %v, want submission order %v", got, want)
	}
}

// TestStoreSnapshotDuplicateJobRefused: a snapshot that lists one job
// twice, checksummed correctly, is refused rather than loaded as a table
// whose order and pending index disagree with its job map.
func TestStoreSnapshotDuplicateJobRefused(t *testing.T) {
	sj := snapJob{ID: "j1", Tenant: "t", Spec: testSpec(), State: StatePending,
		CP: *dispatch.NewCheckpoint([]keyspace.Interval{keyspace.NewInterval(0, 14)}, 0, nil)}
	body := snapBody{Seq: 2, Jobs: []snapJob{sj, sj}}
	sum, err := snapSum(&body)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapFile), mustJSON(t, snapEnvelope{snapBody: body, Sum: sum}), 0o600); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, StoreOptions{NoSync: true}); !errors.Is(err, frame.ErrCorrupt) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestStoreAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, StoreOptions{NoSync: true, CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, _ := s.Submit("t", 0, testSpec())
	s.SetState(j.ID, StateRunning, "")
	s.SetState(j.ID, StatePaused, "")
	if _, err := os.Stat(filepath.Join(dir, snapFile)); err != nil {
		t.Fatalf("no snapshot after CompactEvery records: %v", err)
	}
	if st, _ := os.Stat(filepath.Join(dir, walFile)); st.Size() != 0 {
		t.Fatalf("WAL not truncated after auto-compaction: %d bytes", st.Size())
	}
	s2 := reopen(t, dir)
	sameTable(t, s, s2)
}

func TestStoreCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	s.Submit("t", 0, testSpec())
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapFile)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x01
	os.WriteFile(path, data, 0o600)
	if _, err := Open(dir, StoreOptions{NoSync: true}); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("corrupt snapshot: %v, want ErrCorrupt", err)
	}
}

// TestStoreTelemetry: the WAL counters move with the writes they count.
func TestStoreTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, StoreOptions{Telemetry: reg}) // sync mode: fsync observed
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Submit("t", 0, testSpec())
	s.SetState(j.ID, StateRunning, "")
	if got := reg.Counter(telemetry.MetricJobsWALAppends).Value(); got != 2 {
		t.Errorf("appends = %d, want 2", got)
	}
	if reg.Counter(telemetry.MetricJobsWALBytes).Value() == 0 {
		t.Error("bytes = 0")
	}
	if reg.Histogram(telemetry.MetricJobsWALFsync).Count() != 2 {
		t.Error("fsync latency not observed")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(telemetry.MetricJobsSnapshots).Value() != 1 {
		t.Error("snapshot not counted")
	}
	s.Close()

	reg2 := telemetry.NewRegistry()
	s2, err := Open(dir, StoreOptions{Telemetry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := reg2.Counter(telemetry.MetricJobsWALReplayed).Value(); got != 0 {
		t.Errorf("replayed %d records after compaction, want 0", got)
	}
}

// TestParentStateDirectoryOpens recovers a state directory captured at
// the commit before the WAL moved onto frame.Log — a snapshot at
// watermark 3 (one running job, four keys tested) plus a two-record log
// past it (a second submit, a checkpoint with a found key) — and appends
// to it: an existing -jobs directory survives the upgrade byte for byte.
func TestParentStateDirectoryOpens(t *testing.T) {
	const (
		parentWAL  = "000000a90100000000000000047b226964223a226a303030303034222c2274656e616e74223a22626f62222c227072696f72697479223a302c2273706563223a7b22616c676f726974686d223a226d6435222c22746172676574223a223037313539633437656531623139616534666239633430643438303835366334222c2263686172736574223a226162222c226d696e5f6c656e223a312c226d61785f6c656e223a337d2c2261745f756e69785f6e73223a347d0d047f95000000690300000000000000057b226964223a226a303030303031222c226370223a7b2272656d61696e696e67223a5b7b227374617274223a2239222c22656e64223a223134227d5d2c22666f756e64223a5b22596d453d225d2c22746573746564223a397d2c2261745f756e69785f6e73223a357d8ba2aa45"
		parentSnap = "7b22736571223a332c226a6f6273223a5b7b226964223a226a303030303031222c2274656e616e74223a22616c696365222c227072696f72697479223a312c2273706563223a7b22616c676f726974686d223a226d6435222c22746172676574223a223037313539633437656531623139616534666239633430643438303835366334222c2263686172736574223a226162222c226d696e5f6c656e223a312c226d61785f6c656e223a337d2c227374617465223a2272756e6e696e67222c226370223a7b2272656d61696e696e67223a5b7b227374617274223a2234222c22656e64223a223134227d5d2c22746573746564223a347d2c227375626d69747465645f61745f756e69785f6e73223a312c22757064617465645f61745f756e69785f6e73223a337d5d2c2273756d223a2263726333323a3734313134616162227d"
	)
	dir := t.TempDir()
	for name, enc := range map[string]string{walFile: parentWAL, snapFile: parentSnap} {
		raw, err := hex.DecodeString(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	s := testStore(t, dir)
	j1, err := s.Get("j000001")
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != StateRunning || j1.Tested != 9 || j1.Remaining != "5" || len(j1.Found) != 1 || j1.Found[0] != "ba" {
		t.Errorf("recovered j000001 = %+v", j1)
	}
	if j4, err := s.Get("j000004"); err != nil || j4.Tenant != "bob" || j4.State != StatePending {
		t.Errorf("recovered j000004 = %+v, %v", j4, err)
	}
	next, err := s.Submit("carol", 0, testSpec())
	if err != nil || next.ID != "j000006" {
		t.Fatalf("submit after recovery: %+v, %v (the log must resume at sequence 6)", next, err)
	}
	// The bytes the parent wrote are still the head of the log.
	raw, _ := hex.DecodeString(parentWAL)
	if got, err := os.ReadFile(filepath.Join(dir, walFile)); err != nil || !bytes.HasPrefix(got, raw) || len(got) <= len(raw) {
		t.Errorf("log after recovery and one append: %d bytes (%v), parent's %d are not its prefix", len(got), err, len(raw))
	}
}

// TestCheckRemainingDoesNotWrap: tested + remaining near 2^128 is
// refused, not wrapped round to a small sum that fits the space.
func TestCheckRemainingDoesNotWrap(t *testing.T) {
	top := keyspace.ID{Hi: math.MaxUint64, Lo: math.MaxUint64}
	for _, tested := range []uint64{1, math.MaxUint64} {
		cp := dispatch.NewCheckpoint([]keyspace.Interval{{End: top}}, tested, nil)
		if _, err := checkRemaining(cp, top); err == nil {
			t.Errorf("tested %d + remaining 2^128-1 accepted in a space of 2^128-1", tested)
		}
	}
	cp := dispatch.NewCheckpoint([]keyspace.Interval{{Start: keyspace.IDOf(1), End: top}}, 1, nil)
	if _, err := checkRemaining(cp, top); err != nil {
		t.Errorf("tested 1 + remaining 2^128-2 refused in a space of 2^128-1: %v", err)
	}
}

// TestBadRemainingSetRefused: the remaining set is the sole record of what
// a job still has to search, so one that could skip or double identifiers
// must be refused at every door it can come through — RecordCheckpoint
// (the live commit path), WAL replay (crash recovery and follower
// promotion) and decodeSnapshot (store recovery and Replica.ApplySnapshot)
// — never resumed from.
func TestBadRemainingSetRefused(t *testing.T) {
	spec := testSpec()
	spec.Charset, spec.MaxLen = "abcdefghijklmnopqrstuvwxyz0123456789", 2 // 36 + 1296 = 1332 keys
	const whole = `[{"start":"0","end":"1332"}]`
	cases := []struct{ name, remaining string }{
		{"unparsable", `[{"start":"x","end":"y"}]`},
		{"negative", `[{"start":"-20","end":"-10"}]`},
		{"outside-space", `[{"start":"999999990","end":"999999999"}]`},
		{"overlapping", `[{"start":"0","end":"10"},{"start":"0","end":"10"}]`},
		{"inverted", `[{"start":"10","end":"5"}]`},
		{"partial-overlap", `[{"start":"100","end":"200"},{"start":"0","end":"101"}]`},
		{"past-2^128", `[{"start":"0","end":"340282366920938463463374607431768211456"}]`},
	}
	for _, tc := range cases {
		cpJSON := `{"remaining":` + tc.remaining + `,"tested":0}`

		t.Run(tc.name+"/RecordCheckpoint", func(t *testing.T) {
			s := testStore(t, t.TempDir())
			j, err := s.Submit("t", 0, spec)
			if err != nil {
				t.Fatal(err)
			}
			s.SetState(j.ID, StateRunning, "")
			var cp dispatch.Checkpoint
			if err := json.Unmarshal([]byte(cpJSON), &cp); err != nil {
				return // refused at the JSON boundary: no such Checkpoint value exists
			}
			if err := s.RecordCheckpoint(j.ID, &cp); err == nil {
				t.Fatal("accepted")
			}
			if got, _ := s.Get(j.ID); got.Remaining != "1332" {
				t.Fatalf("refused checkpoint changed the table: remaining %s", got.Remaining)
			}
		})

		t.Run(tc.name+"/replay", func(t *testing.T) {
			var wal []byte
			wal = frame.Append(wal, byte(recSubmit), 1, mustJSON(t, submitRecord{ID: "j1", Tenant: "t", Spec: spec, At: 1}))
			wal = frame.Append(wal, byte(recState), 2, mustJSON(t, stateRecord{ID: "j1", To: StateRunning, At: 2}))
			wal = frame.Append(wal, byte(recCheckpoint), 3, []byte(`{"id":"j1","cp":`+cpJSON+`,"at_unix_ns":3}`))
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o600); err != nil {
				t.Fatal(err)
			}
			if s, err := Open(dir, StoreOptions{NoSync: true}); !errors.Is(err, frame.ErrCorrupt) {
				if err == nil {
					s.Close()
				}
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})

		t.Run(tc.name+"/snapshot", func(t *testing.T) {
			// A snapshot whose checksum is right for its (bad) content: the
			// canonical encoding of a sound table with the remaining set
			// swapped in, summed afterwards.
			body := mustJSON(t, snapBody{Seq: 3, Jobs: []snapJob{{
				ID: "j1", Tenant: "t", Spec: spec, State: StateRunning,
				CP:          *dispatch.NewCheckpoint([]keyspace.Interval{keyspace.NewInterval(0, 1332)}, 0, nil),
				SubmittedAt: 1, UpdatedAt: 2,
			}}})
			if !bytes.Contains(body, []byte(whole)) {
				t.Fatalf("snapshot encoding changed: %s", body)
			}
			body = bytes.Replace(body, []byte(whole), []byte(tc.remaining), 1)
			snap := fmt.Sprintf(`%s,"sum":"crc32:%08x"}`, body[:len(body)-1], crc32.ChecksumIEEE(body))

			rep, err := OpenReplica(t.TempDir(), ReplicaOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()
			if err := rep.ApplySnapshot([]byte(snap)); !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("ApplySnapshot = %v, want ErrCorrupt", err)
			}
			if rep.Seeded() {
				t.Fatal("replica seeded from a refused snapshot")
			}
		})
	}
}
