package dispatch

import (
	"encoding/json"
	"testing"

	"keysearch/internal/keyspace"
)

func bigInterval(t *testing.T, start, end string) keyspace.Interval {
	t.Helper()
	s, err1 := keyspace.ParseID(start)
	e, err2 := keyspace.ParseID(end)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad test interval [%s, %s)", start, end)
	}
	return keyspace.Interval{Start: s, End: e}
}

// TestCheckpointRoundTripCases: the JSON encoding — the payload of the job
// store's WAL checkpoint records and snapshot entries — must be the
// identity across representative checkpoint shapes, and the bytes must be
// the ones stores on disk already hold.
func TestCheckpointRoundTripCases(t *testing.T) {
	cases := []struct {
		name string
		cp   Checkpoint
		wire string
	}{
		{"empty", Checkpoint{}, `{"remaining":null,"tested":0}`},
		{"tested-only", Checkpoint{Tested: 12345}, `{"remaining":null,"tested":12345}`},
		{"one-interval", Checkpoint{
			Remaining: []keyspace.Interval{keyspace.NewInterval(0, 1000)},
			Tested:    42,
		}, `{"remaining":[{"start":"0","end":"1000"}],"tested":42}`},
		{"multi-interval-with-found", Checkpoint{
			Remaining: []keyspace.Interval{keyspace.NewInterval(300, 600), keyspace.NewInterval(800, 1000)},
			Found:     [][]byte{[]byte("abc"), {0x00, 0xff, 0x7f}},
			Tested:    500,
		}, `{"remaining":[{"start":"300","end":"600"},{"start":"800","end":"1000"}],"found":["YWJj","AP9/"],"tested":500}`},
		{"huge-interval", Checkpoint{
			// [2^127, 2^128-1): far beyond uint64, must survive exactly.
			Remaining: []keyspace.Interval{bigInterval(t,
				"170141183460469231731687303715884105728",
				"340282366920938463463374607431768211455")},
		}, `{"remaining":[{"start":"170141183460469231731687303715884105728","end":"340282366920938463463374607431768211455"}],"tested":0}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(&tc.cp)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.wire {
				t.Errorf("encoding changed:\n got %s\nwant %s", data, tc.wire)
			}
			var got Checkpoint
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			if got.Tested != tc.cp.Tested {
				t.Errorf("tested: %d != %d", got.Tested, tc.cp.Tested)
			}
			if len(got.Remaining) != len(tc.cp.Remaining) {
				t.Fatalf("remaining: %d != %d", len(got.Remaining), len(tc.cp.Remaining))
			}
			for i, iv := range got.Remaining {
				if want := tc.cp.Remaining[i]; iv != want {
					t.Errorf("remaining[%d]: %v != %v", i, iv, want)
				}
			}
			if len(got.Found) != len(tc.cp.Found) {
				t.Fatalf("found: %d != %d", len(got.Found), len(tc.cp.Found))
			}
			for i := range got.Found {
				if string(got.Found[i]) != string(tc.cp.Found[i]) {
					t.Errorf("found[%d] differs", i)
				}
			}
			if got.RemainingKeys() != tc.cp.RemainingKeys() {
				t.Errorf("remaining keys: %v != %v", got.RemainingKeys(), tc.cp.RemainingKeys())
			}
		})
	}
}

// TestCheckpointRejectsLegacyAndGarbage: bytes that are not a checkpoint —
// including one whose interval bounds are not integers — are refused when
// decoded, not half-loaded as a smaller remaining set.
func TestCheckpointRejectsLegacyAndGarbage(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"bad-interval", `{"remaining":[{"start":"x","end":"10"}],"tested":0}`},
		{"past-2^128", `{"remaining":[{"start":"0","end":"340282366920938463463374607431768211456"}],"tested":0}`},
		{"signed-bound", `{"remaining":[{"start":"+0","end":"10"}],"tested":0}`},
		{"missing-bound", `{"remaining":[{"start":"0"}],"tested":0}`},
		{"numeric-bound", `{"remaining":[{"start":0,"end":10}],"tested":0}`},
		{"null-interval", `{"remaining":[null],"tested":0}`},
		{"not-json", "tested: 5"},
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cp Checkpoint
			if err := json.Unmarshal([]byte(tc.data), &cp); err == nil {
				t.Errorf("accepted as %+v", cp)
			}
		})
	}
}
