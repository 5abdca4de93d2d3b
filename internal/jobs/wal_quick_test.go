package jobs

import (
	"bytes"
	"io"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"keysearch/internal/frame"
)

// recordedWAL drives a random-but-valid operation sequence against a
// fresh store and returns the raw log it produced.
func recordedWAL(t *testing.T, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	s, err := Open(dir, StoreOptions{NoSync: true, Clock: &tickClock{}})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"alice", "bob", "carol"}
	var ids []string
	for op := 0; op < 25; op++ {
		switch {
		case len(ids) == 0 || rng.Intn(4) == 0:
			j, err := s.Submit(tenants[rng.Intn(len(tenants))], rng.Intn(3), testSpec())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
		case rng.Intn(2) == 0:
			id := ids[rng.Intn(len(ids))]
			j, _ := s.Get(id)
			var targets []State
			for _, to := range []State{StatePending, StateRunning, StatePaused, StateDone, StateFailed, StateCancelled} {
				if validTransition(j.State, to) {
					targets = append(targets, to)
				}
			}
			if len(targets) == 0 {
				continue
			}
			if _, err := s.SetState(id, targets[rng.Intn(len(targets))], "quick"); err != nil {
				t.Fatal(err)
			}
		default:
			id := ids[rng.Intn(len(ids))]
			if j, _ := s.Get(id); j.State.Terminal() || j.Remaining == "0" {
				continue
			}
			if err := s.RecordCheckpoint(id, cut(t, s, id, int64(1+rng.Intn(5)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recordBoundaries returns the byte offset after each record.
func recordBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	r := bytes.NewReader(data)
	var offs []int
	off := 0
	for {
		rec, err := frame.Read(r, walFormat)
		if err == io.EOF {
			return offs
		}
		if err != nil {
			t.Fatalf("recorded WAL unreadable at %d: %v", off, err)
		}
		off += frame.Overhead + len(rec.Payload)
		offs = append(offs, off)
	}
}

// checkConsistent verifies the package invariant over a recovered
// table: valid states, per-job tested+remaining inside the space, the
// summed tested counter never exceeding the summed keyspace, and the
// pending index holding exactly the PENDING jobs in table order.
func checkConsistent(t *testing.T, s *Store, seed int64, prefix int) bool {
	t.Helper()
	all := s.List("")
	var want []string
	for _, j := range all {
		if j.State == StatePending {
			want = append(want, j.ID)
		}
	}
	var got []string
	for _, j := range s.Pending() {
		got = append(got, j.ID)
	}
	if !slices.Equal(got, want) || s.PendingCount() != len(want) || s.Count() != len(all) {
		t.Logf("seed %d prefix %d: pending index %v (count %d), table scan %v; Count %d of %d",
			seed, prefix, got, s.PendingCount(), want, s.Count(), len(all))
		return false
	}
	sumTested := new(big.Int)
	sumSpace := new(big.Int)
	for _, j := range all {
		if !j.State.Valid() {
			t.Logf("seed %d prefix %d: job %s invalid state %d", seed, prefix, j.ID, j.State)
			return false
		}
		space, ok := new(big.Int).SetString(j.Space, 10)
		if !ok {
			t.Logf("seed %d prefix %d: job %s bad space %q", seed, prefix, j.ID, j.Space)
			return false
		}
		covered := new(big.Int).Add(j.remainingBig(), new(big.Int).SetUint64(j.Tested))
		if covered.Cmp(space) > 0 {
			t.Logf("seed %d prefix %d: job %s covers %s of %s", seed, prefix, j.ID, covered, space)
			return false
		}
		sumTested.Add(sumTested, new(big.Int).SetUint64(j.Tested))
		sumSpace.Add(sumSpace, space)
	}
	if sumTested.Cmp(sumSpace) > 0 {
		t.Logf("seed %d prefix %d: summed tested %s exceeds keyspace %s", seed, prefix, sumTested, sumSpace)
		return false
	}
	return true
}

// TestQuickWALPrefixReplaysConsistent: for any recorded WAL and ANY
// byte prefix of it — a record boundary (clean crash) or a mid-record
// cut (torn append) — recovery succeeds and yields a consistent job
// table whose tested counters are monotone in the prefix length and
// never exceed the keyspace.
func TestQuickWALPrefixReplaysConsistent(t *testing.T) {
	property := func(seed int64) bool {
		data := recordedWAL(t, seed)
		bounds := recordBoundaries(t, data)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))

		prefixes := []int{0}
		for _, b := range bounds {
			prefixes = append(prefixes, b)
			// A torn cut strictly inside the following record replays
			// to the same table as the boundary itself.
			if b < len(data) {
				next := len(data)
				for _, nb := range bounds {
					if nb > b {
						next = nb
						break
					}
				}
				if next-b > 1 {
					prefixes = append(prefixes, b+1+rng.Intn(next-b-1))
				}
			}
		}

		lastTested := map[string]uint64{}
		lastBoundary := -1
		for _, n := range prefixes {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walFile), data[:n], 0o600); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, StoreOptions{NoSync: true})
			if err != nil {
				t.Logf("seed %d: prefix %d failed recovery: %v", seed, n, err)
				return false
			}
			ok := checkConsistent(t, s, seed, n)
			boundary := 0
			for _, b := range bounds {
				if b <= n {
					boundary = b
				}
			}
			if ok && boundary > lastBoundary {
				// Longer prefixes only ever add progress.
				for _, j := range s.List("") {
					if j.Tested < lastTested[j.ID] {
						t.Logf("seed %d prefix %d: job %s tested regressed %d -> %d",
							seed, n, j.ID, lastTested[j.ID], j.Tested)
						ok = false
					}
					lastTested[j.ID] = j.Tested
				}
				lastBoundary = boundary
			}
			s.Close()
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
