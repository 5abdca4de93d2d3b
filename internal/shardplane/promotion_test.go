package shardplane

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"keysearch/internal/frame"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// TestHelperShardMasterProcess is not a test: it is the shard-master
// subprocess body for TestShardFailoverPromotion, re-executed from the
// test binary so the SIGKILL is a real OS kill of a real process.
// Env-gated; normal runs skip it instantly.
func TestHelperShardMasterProcess(t *testing.T) {
	if os.Getenv("KEYSEARCH_SHARD_HELPER") != "1" {
		return
	}
	dir := os.Getenv("KEYSEARCH_SHARD_DIR")
	addr := os.Getenv("KEYSEARCH_FOLLOWER_ADDR")
	// A deliberately slow executor keeps leases in flight for tens of
	// milliseconds, so the parent's SIGKILL lands mid-lease.
	sh, err := OpenShard("s0", dir, []jobs.Executor{newScanExec("e0", 20*time.Millisecond)}, ShardOptions{
		Store:     jobs.StoreOptions{NoSync: true},
		Jobs:      jobs.Options{MaxLease: 8},
		Replicate: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper: open:", err)
		os.Exit(1)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper: dial:", err)
		os.Exit(1)
	}
	go sh.ServeFollower(conn)
	if err := sh.Start(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "helper: start:", err)
		os.Exit(1)
	}
	for _, key := range []string{"ca", "abc", "bba"} {
		sum := md5.Sum([]byte(key))
		spec := jobs.Spec{Algorithm: "md5", Target: hex.EncodeToString(sum[:]), Charset: "abc", MinLen: 1, MaxLen: 3}
		if _, err := sh.Service().Submit("acme", 0, spec); err != nil {
			fmt.Fprintln(os.Stderr, "helper: submit:", err)
			os.Exit(1)
		}
	}
	select {} // run until SIGKILLed
}

// spanLedger records committed leases post-promotion for the tiling
// audit.
type spanLedger struct {
	mu    sync.Mutex
	spans map[string][]keyspace.Interval
}

func (sl *spanLedger) onCommit(jobID, tenant string, iv keyspace.Interval, tested uint64) {
	sl.mu.Lock()
	sl.spans[jobID] = append(sl.spans[jobID], iv)
	sl.mu.Unlock()
}

// assertExactTiling proves the committed spans partition the expected
// interval set exactly: sorted spans must walk each expected interval
// end to end with no gap, no overlap, and no key outside the set.
func assertExactTiling(t *testing.T, jobID string, expected []keyspace.Interval, spans []keyspace.Interval) {
	t.Helper()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Cmp(spans[j].Start) < 0 })
	sort.Slice(expected, func(i, j int) bool { return expected[i].Start.Cmp(expected[j].Start) < 0 })
	si := 0
	for _, want := range expected {
		cursor := want.Start
		for cursor.Cmp(want.End) < 0 {
			if si >= len(spans) {
				t.Fatalf("job %s: coverage gap at %s (expected interval [%s,%s))", jobID, cursor, want.Start, want.End)
			}
			sp := spans[si]
			if sp.Start.Cmp(cursor) != 0 {
				t.Fatalf("job %s: span starts at %s, cursor at %s (gap or overlap)", jobID, sp.Start, cursor)
			}
			if sp.End.Cmp(want.End) > 0 {
				t.Fatalf("job %s: span [%s,%s) crosses expected interval end %s", jobID, sp.Start, sp.End, want.End)
			}
			cursor = sp.End
			si++
		}
	}
	if si != len(spans) {
		t.Fatalf("job %s: %d committed spans beyond the expected set", jobID, len(spans)-si)
	}
}

// TestShardFailoverPromotion is the acceptance test for the
// replication layer: a real shard-master process is SIGKILLed with
// leases in flight, its warm follower — fed only by the replication
// stream, never the master's disk — is promoted, and the promoted
// shard finishes every job with the exactly-once invariant intact:
// committed post-promotion leases tile the promotion-time remaining
// set exactly, every keyspace is tested exactly once end to end, and
// each planted solution is reported exactly once.
func TestShardFailoverPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	masterDir, replicaDir := t.TempDir(), t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperShardMasterProcess$")
	cmd.Env = append(os.Environ(),
		"KEYSEARCH_SHARD_HELPER=1",
		"KEYSEARCH_SHARD_DIR="+masterDir,
		"KEYSEARCH_FOLLOWER_ADDR="+ln.Addr().String())
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := jobs.OpenReplica(replicaDir, jobs.ReplicaOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fol := NewFollower(rep)
	folDone := make(chan error, 1)
	go func() { folDone <- fol.Run(conn) }()

	// Wait for the stream to carry the three submissions, their
	// pending->running transitions, and at least two committed
	// checkpoints, so the kill interrupts live progress.
	waitFor(t, 30*time.Second, "replicated progress", func() bool { return fol.Seq() >= 8 })
	if err := cmd.Process.Kill(); err != nil { // SIGKILL, mid-lease
		t.Fatal(err)
	}
	cmd.Wait()
	// The severed stream may end at a frame boundary (EOF), torn
	// mid-frame, or with a TCP reset — the replica holds every fully
	// received record in all three cases. What must NOT happen is a
	// protocol violation: a corrupt frame or a record the replica
	// refused.
	if err := <-folDone; errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("follower stream ended with %v", err)
	}

	// Promote from the replica alone.
	ledger := &spanLedger{spans: map[string][]keyspace.Interval{}}
	promoted, err := Promote("s0", rep, []jobs.Executor{newScanExec("p0", 0)}, ShardOptions{
		Store: jobs.StoreOptions{NoSync: true},
		Jobs:  jobs.Options{MaxLease: 8, OnCommit: ledger.onCommit},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Shutdown(context.Background())

	// Capture the promotion-time remaining set before anything runs.
	table := promoted.Store().List("")
	if len(table) != 3 {
		t.Fatalf("promoted table has %d jobs, want 3", len(table))
	}
	remaining := map[string][]keyspace.Interval{}
	tested0 := map[string]uint64{}
	var remainingTotal, done0 uint64
	for _, j := range table {
		cp, err := promoted.Store().Progress(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		remaining[j.ID] = cp.Remaining
		tested0[j.ID] = cp.Tested
		remainingTotal += cp.RemainingKeys().Uint64()
		done0 += cp.Tested
	}
	if done0 == 0 {
		t.Fatal("no progress replicated before the kill — the test exercised nothing")
	}
	if remainingTotal == 0 {
		t.Fatal("nothing remained at promotion — the kill landed after completion")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := promoted.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "promoted jobs to finish", func() bool {
		for _, j := range promoted.Service().List("") {
			if !j.State.Terminal() {
				return false
			}
		}
		return true
	})

	for _, j := range promoted.Service().List("") {
		if j.State != jobs.StateDone {
			t.Fatalf("job %s ended %s (%s), want done", j.ID, j.State, j.Reason)
		}
		// Exactly-once coverage: committed tested count equals the
		// space, with the pre-kill committed prefix intact.
		if strconv.FormatUint(j.Tested, 10) != j.Space {
			t.Fatalf("job %s: tested %d of %s keys", j.ID, j.Tested, j.Space)
		}
		if j.Tested < tested0[j.ID] {
			t.Fatalf("job %s: tested regressed across promotion (%d -> %d)", j.ID, tested0[j.ID], j.Tested)
		}
		// Planted solution reported exactly once, and honestly: its
		// digest is the target.
		if len(j.Found) != 1 {
			t.Fatalf("job %s: %d solutions, want exactly 1 (got %q)", j.ID, len(j.Found), j.Found)
		}
		sum := md5.Sum([]byte(j.Found[0]))
		if hex.EncodeToString(sum[:]) != j.Spec.Target {
			t.Fatalf("job %s: reported solution %q does not hash to the target", j.ID, j.Found[0])
		}
		// Exact lease tiling of the promotion-time remaining set.
		ledger.mu.Lock()
		spans := append([]keyspace.Interval(nil), ledger.spans[j.ID]...)
		ledger.mu.Unlock()
		assertExactTiling(t, j.ID, remaining[j.ID], spans)
	}
}
