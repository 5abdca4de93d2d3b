package shardplane

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"keysearch/internal/frame"
	"keysearch/internal/jobs"
)

// openTestShard opens a replicating shard with manual drive (no
// executor loops) so tests mutate the store deterministically.
func openTestShard(t *testing.T, name, dir string) *Shard {
	t.Helper()
	sh, err := OpenShard(name, dir, []jobs.Executor{newScanExec("e0", 0)}, ShardOptions{
		Store:     jobs.StoreOptions{NoSync: true},
		Replicate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestReplicationRoundTrip is the warm-standby contract: everything a
// master logs reaches the follower, and the promoted store is
// byte-for-byte the master's job table.
func TestReplicationRoundTrip(t *testing.T) {
	masterDir, replicaDir := t.TempDir(), t.TempDir()
	sh := openTestShard(t, "s0", masterDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := sh.StartManual(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err := jobs.OpenReplica(replicaDir, jobs.ReplicaOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fol := NewFollower(rep)

	mc, fc := net.Pipe()
	senderDone := make(chan error, 1)
	followerDone := make(chan error, 1)
	go func() { senderDone <- sh.ServeFollower(mc) }()
	go func() { followerDone <- fol.Run(fc) }()

	// Mutate the master: submissions, transitions, checkpoints (via
	// the manual lease/commit path), a cancellation.
	svc := sh.Service()
	if _, err := svc.Submit("acme", 0, testSpec(t, "ab", "ab", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit("zeta", 1, testSpec(t, "b", "ab", 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Drive one lease through commit so a checkpoint record ships.
	waitFor(t, 5*time.Second, "lease available", func() bool {
		l, ok := svc.TryLease(0)
		if !ok {
			return false
		}
		ex := newScanExec("e0", 0)
		repq, err := ex.Search(context.Background(), l.Spec, l.Interval)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		svc.Commit(l, repq)
		return true
	})
	j3, err := svc.Submit("acme", 0, testSpec(t, "a", "ab", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(j3.ID, "superseded"); err != nil {
		t.Fatal(err)
	}

	// Wait for the follower to reach the master's watermark, then stop
	// the master cleanly: the feed closes and the sender unwinds.
	waitFor(t, 5*time.Second, "follower catch-up", func() bool {
		return fol.Seq() >= sh.Acked() && sh.Acked() > 0 && fol.Seq() == storeSeq(t, sh)
	})
	masterView := svc.List("")
	sh.Kill()
	if err := <-senderDone; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("follower: %v", err)
	}

	// Promote: close the replica, run ordinary recovery over its dir.
	promoted, err := Promote("s0", rep, []jobs.Executor{newScanExec("e0", 0)}, ShardOptions{
		Store: jobs.StoreOptions{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Shutdown(context.Background())
	got := promoted.Store().List("")
	if !reflect.DeepEqual(got, masterView) {
		t.Fatalf("promoted table differs from master:\n got %+v\nwant %+v", got, masterView)
	}
}

// storeSeq peeks the master's current WAL watermark through a fresh
// snapshot export.
func storeSeq(t *testing.T, sh *Shard) uint64 {
	t.Helper()
	_, seq, err := sh.Store().ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestReplicaRefusesRecordBeforeSnapshot(t *testing.T) {
	rep, err := jobs.OpenReplica(t.TempDir(), jobs.ReplicaOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyRecord(1, 1, []byte("{}")); err == nil {
		t.Fatal("record before snapshot accepted")
	}
}

func TestReplicaRefusesReorderedRecords(t *testing.T) {
	masterDir := t.TempDir()
	sh := openTestShard(t, "s0", masterDir)
	defer sh.Shutdown(context.Background())
	data, seq, err := sh.Store().ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := jobs.OpenReplica(t.TempDir(), jobs.ReplicaOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplySnapshot(data); err != nil {
		t.Fatal(err)
	}
	// A gap (skipping seq+1) and a repeat must both be refused.
	if err := rep.ApplyRecord(1, seq+2, []byte(`{}`)); err == nil {
		t.Fatal("sequence gap accepted")
	}
	if err := rep.ApplyRecord(1, seq, []byte(`{}`)); err == nil {
		t.Fatal("sequence repeat accepted")
	}
	// A valid next record still lands: only ordering is refused, and
	// refusal does not wedge the replica.
	if err := rep.ApplyRecord(1, seq+1, []byte(`{}`)); err != nil {
		t.Fatalf("in-order record refused after rejected ones: %v", err)
	}
}

// TestFollowerRefusesDamagedStream feeds the follower raw frame bytes
// with injected damage and asserts classification: torn tail vs
// corrupt frame, and in both cases a hard error, never a resync.
func TestFollowerRefusesDamagedStream(t *testing.T) {
	sh := openTestShard(t, "s0", t.TempDir())
	defer sh.Shutdown(context.Background())
	snap, seq, err := sh.Store().ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	frames := frame.Append(nil, FrameSnapshot, seq, snap)
	frames = frame.Append(frames, FrameRecord, seq+1, append([]byte{1}, []byte(`{"id":"x"}`)...))

	run := func(stream []byte) error {
		rep, err := jobs.OpenReplica(t.TempDir(), jobs.ReplicaOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		fol := NewFollower(rep)
		return fol.Run(nopCloser{bytes.NewReader(stream)})
	}

	t.Run("torn", func(t *testing.T) {
		err := run(frames[:len(frames)-3])
		if !errors.Is(err, frame.ErrTorn) {
			t.Fatalf("torn stream: got %v, want ErrTorn", err)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		bad := append([]byte(nil), frames...)
		bad[len(bad)-6] ^= 0x01 // inside the second frame's payload
		err := run(bad)
		if !errors.Is(err, frame.ErrCorrupt) {
			t.Fatalf("corrupt stream: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("ack frame on follower", func(t *testing.T) {
		err := run(frame.Append(nil, FrameAck, 1, nil))
		if !errors.Is(err, frame.ErrCorrupt) {
			t.Fatalf("ack frame: got %v, want ErrCorrupt", err)
		}
	})
}

// nopCloser adapts a reader into the follower's conn; writes (acks)
// vanish.
type nopCloser struct{ io.Reader }

func (nopCloser) Write(p []byte) (int, error) { return len(p), nil }
func (nopCloser) Close() error                { return nil }

// TestSenderResnapshotsWhenBehind: a follower attached after the feed
// trimmed its tail still converges — the sender detects behind and
// re-snapshots instead of replaying a hole.
func TestSenderResnapshotsWhenBehind(t *testing.T) {
	f := NewFeed(4)
	for seq := uint64(1); seq <= 10; seq++ {
		f.Append(1, seq, []byte("p"))
	}
	// Cursor 0 fell off the buffer: behind, not a stale record.
	rec, behind, ok := f.next(0, nil)
	if !ok || !behind {
		t.Fatalf("next(0) = (%+v, behind=%v, ok=%v), want behind", rec, behind, ok)
	}
	// Cursor at the tail edge still replays in order.
	rec, behind, ok = f.next(6, nil)
	if !ok || behind || rec.seq != 7 {
		t.Fatalf("next(6) = (seq=%d, behind=%v, ok=%v), want seq 7", rec.seq, behind, ok)
	}
}

func TestFeedWakesBlockedReader(t *testing.T) {
	f := NewFeed(8)
	got := make(chan feedRec, 1)
	go func() {
		rec, _, ok := f.next(0, nil)
		if ok {
			got <- rec
		}
		close(got)
	}()
	time.Sleep(10 * time.Millisecond) // let the reader block
	f.Append(2, 1, []byte("x"))
	select {
	case rec := <-got:
		if rec.seq != 1 || rec.typ != 2 {
			t.Fatalf("woke with %+v", rec)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("append did not wake the reader")
	}
}

func TestFeedAbortWakesReader(t *testing.T) {
	f := NewFeed(8)
	stop := new(bool)
	done := make(chan bool, 1)
	go func() {
		_, _, ok := f.next(0, stop)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	f.abort(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("aborted next returned ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abort did not wake the reader")
	}
}

// TestLinkLagAndDrop: the synchronous rehearsal channel holds back the
// lag window and loses exactly that window on a crash.
func TestLinkLagAndDrop(t *testing.T) {
	sh := openTestShard(t, "s0", t.TempDir())
	defer sh.Shutdown(context.Background())

	rep, err := jobs.OpenReplica(filepath.Join(t.TempDir(), "rep"), jobs.ReplicaOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	link := NewLink(NewFollower(rep), 2)
	if err := link.Seed(sh.Store().ExportSnapshot); err != nil {
		t.Fatal(err)
	}
	base := rep.Seq()
	for i := 0; i < 5; i++ {
		link.OnAppend(1, base+uint64(i)+1, []byte(`{}`))
	}
	if err := link.Err(); err != nil {
		t.Fatal(err)
	}
	if got := link.Lagged(); got != 2 {
		t.Fatalf("lag window holds %d records, want 2", got)
	}
	if rep.Seq() != base+3 {
		t.Fatalf("replica at %d, want %d (3 of 5 applied)", rep.Seq(), base+3)
	}
	if n := link.Drop(); n != 2 {
		t.Fatalf("drop lost %d records, want 2", n)
	}
	if rep.Seq() != base+3 {
		t.Fatalf("drop changed the replica watermark to %d", rep.Seq())
	}
}
