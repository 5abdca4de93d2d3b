package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFleetsimReportMatchesCheckedIn re-runs `keybench -fleetsim` and
// compares what the scheduler decided in each of the four scenarios —
// trace and steal digests, makespan, commit and steal counts — with the
// tracked BENCH_sim.json. A change to lease order, lease IDs, victim
// choice or requeue order shows up here; regenerate the file only when
// such a change is intended.
func TestFleetsimReportMatchesCheckedIn(t *testing.T) {
	load := func(path string) SimReport {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep SimReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := load("../../BENCH_sim.json")
	out := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := fleetsimMain(want.Quick, out); err != nil {
		t.Fatal(err)
	}
	got := load(out)
	if len(got.Scenarios) != len(want.Scenarios) {
		t.Fatalf("%d scenarios, BENCH_sim.json has %d", len(got.Scenarios), len(want.Scenarios))
	}
	for i, sc := range got.Scenarios {
		w, g := want.Scenarios[i].Result, sc.Result
		if sc.Name != want.Scenarios[i].Name ||
			g.TraceDigest != w.TraceDigest || g.StealDigest != w.StealDigest ||
			g.Makespan != w.Makespan || g.Commits != w.Commits || g.Steals != w.Steals {
			t.Errorf("%s: trace %s steal %s makespan %v commits %d steals %d;\nBENCH_sim.json %s: trace %s steal %s makespan %v commits %d steals %d",
				sc.Name, g.TraceDigest, g.StealDigest, g.Makespan, g.Commits, g.Steals,
				want.Scenarios[i].Name, w.TraceDigest, w.StealDigest, w.Makespan, w.Commits, w.Steals)
		}
	}
}

// TestShardplaneFailoverMatchesCheckedIn re-runs the failover table of
// `keybench -shardplane` (not the wall-clock router bench) and requires
// every field of every row except host_seconds to equal the tracked
// BENCH_shardplane.json: the rehearsal is virtual-time and seeded, so a
// change to lease order, crash handling or promotion shows up here.
func TestShardplaneFailoverMatchesCheckedIn(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_shardplane.json")
	if err != nil {
		t.Fatal(err)
	}
	var want ShardplaneReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	scenarios := failoverScenarios(want.Quick)
	if len(scenarios) != len(want.Failover) {
		t.Fatalf("%d failover scenarios, BENCH_shardplane.json has %d", len(scenarios), len(want.Failover))
	}
	for i, s := range scenarios {
		got, err := runFailoverScenario(s.name, s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := want.Failover[i]
		got.HostSeconds, w.HostSeconds = 0, 0
		if !reflect.DeepEqual(got, w) {
			g, _ := json.Marshal(got)
			b, _ := json.Marshal(w)
			t.Errorf("failover row %d differs from BENCH_shardplane.json:\n got  %s\n want %s", i, g, b)
		}
	}
}
