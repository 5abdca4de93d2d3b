package main

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"keysearch/internal/frame"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/netproto"
	"keysearch/internal/netproto/chaos"
)

const (
	noSuchDigest = "ffffffffffffffffffffffffffffffff"
	space1to4    = 475254 // lowercase keys of length 1..4
)

// output collects what the command prints and announces the address it
// listens on as soon as that line appears.
type output struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // capacity 1: the one "listening on" line
}

var listeningOn = regexp.MustCompile(`listening on (\S+),`)

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(p)
	if m := listeningOn.FindSubmatch(o.buf.Bytes()); m != nil {
		select {
		case o.addr <- string(m[1]):
		default:
		}
	}
	return len(p), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// master is one in-process run of the command in single-search mode.
type master struct {
	out  *output
	done chan error
}

// startMaster runs the command on an ephemeral port with heartbeats off
// (so a chaos plan's write count is exact) and a short retry window.
func startMaster(ctx context.Context, args ...string) *master {
	m := &master{out: &output{addr: make(chan string, 1)}, done: make(chan error, 1)}
	args = append([]string{"-listen", "127.0.0.1:0", "-workers", "2", "-heartbeat", "0", "-retries", "2"}, args...)
	go func() { m.done <- run(ctx, args, m.out) }()
	return m
}

// attach dials one loopback keyworker per config once the master listens.
func (m *master) attach(ctx context.Context, t *testing.T, cfgs ...netproto.WorkerConfig) {
	t.Helper()
	var addr string
	select {
	case addr = <-m.out.addr:
	case err := <-m.done:
		t.Fatalf("master exited before listening: %v\n%s", err, m.out)
	case <-ctx.Done():
		t.Fatalf("master never listened\n%s", m.out)
	}
	for _, cfg := range cfgs {
		go func() { _ = netproto.Dial(ctx, addr, cfg) }()
	}
}

// wait returns the command's error and everything it printed.
func (m *master) wait(ctx context.Context, t *testing.T) (string, error) {
	t.Helper()
	select {
	case err := <-m.done:
		return m.out.String(), err
	case <-ctx.Done():
		t.Fatalf("master still running at the deadline\n%s", m.out)
		return "", nil
	}
}

func worker(name string) netproto.WorkerConfig {
	return netproto.WorkerConfig{Name: name, Workers: 1, TuneStart: 512}
}

func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// onlyJob opens a -checkpoint directory the way a restarted master would
// and returns the single job it must hold.
func onlyJob(t *testing.T, dir string) jobs.Job {
	t.Helper()
	s, err := jobs.Open(dir, jobs.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	held := s.List("")
	if len(held) != 1 {
		t.Fatalf("%s holds %d jobs, want exactly 1: %+v", dir, len(held), held)
	}
	return held[0]
}

// TestFirstHit: the classic invocation still cracks a digest over two TCP
// keyworkers and stops at the first hit.
func TestFirstHit(t *testing.T) {
	ctx := testContext(t)
	sum := md5.Sum([]byte("abc"))
	m := startMaster(ctx, "-alg", "md5", "-hash", hex.EncodeToString(sum[:]), "-max", "4")
	m.attach(ctx, t, worker("nodeA"), worker("nodeB"))
	out, err := m.wait(ctx, t)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, `FOUND: "abc"`) {
		t.Fatalf("no FOUND line:\n%s", out)
	}
}

// TestExhaustiveSurvivesSeveredWorker: one keyworker's connection is cut in
// the middle of a search-result frame; its lease is requeued, the survivor
// finishes, and every identifier is counted exactly once.
func TestExhaustiveSurvivesSeveredWorker(t *testing.T) {
	ctx := testContext(t)
	m := startMaster(ctx, "-hash", noSuchDigest, "-all", "-max", "4", "-max-chunk", "4096")
	victim := worker("victim")
	// Worker writes: hello, tune result and each search result are a header
	// and a payload, so the 9th write is the header of the third result.
	victim.Dialer = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return chaos.Dial(ctx, network, addr, chaos.Plan{SeverAfterWrites: 9, Mode: chaos.Close})
	}
	m.attach(ctx, t, worker("survivor"), victim)
	out, err := m.wait(ctx, t)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{"not found in the search space", "tested 475254 keys", "requeues: "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestEveryWorkerLostIsAnError: with both keyworkers' connections cut and
// nobody rejoining, the service retires both executors; the command must
// then stop with an error naming what is left instead of waiting on a job
// nobody can run — and with -checkpoint the job stays RUNNING for a restart.
func TestEveryWorkerLostIsAnError(t *testing.T) {
	ctx := testContext(t)
	dir := filepath.Join(t.TempDir(), "state")
	m := startMaster(ctx, "-hash", noSuchDigest, "-all", "-max", "4", "-max-chunk", "4096", "-checkpoint", dir)
	severed := func(name string, afterWrites int) netproto.WorkerConfig {
		cfg := worker(name)
		cfg.Dialer = func(ctx context.Context, network, addr string) (net.Conn, error) {
			return chaos.Dial(ctx, network, addr, chaos.Plan{SeverAfterWrites: afterWrites, Mode: chaos.Close})
		}
		return cfg
	}
	m.attach(ctx, t, severed("first", 9), severed("second", 13))
	out, err := m.wait(ctx, t)
	if err == nil || !strings.Contains(err.Error(), "every keyworker lost") {
		t.Fatalf("run = %v, want the fleet-loss error\n%s", err, out)
	}
	left := onlyJob(t, dir)
	if left.State != jobs.StateRunning || left.Tested == 0 || left.Tested >= space1to4 {
		t.Fatalf("left behind: state %s, tested %d of %d — not a resumable mid-search state", left.State, left.Tested, space1to4)
	}
	if !strings.Contains(err.Error(), left.Remaining+" of 475254 keys remaining") {
		t.Errorf("error %q does not name the %s keys remaining", err, left.Remaining)
	}
}

// TestRestartResumesFromCheckpointDir: a master interrupted mid-search
// leaves its job RUNNING in -checkpoint DIR; a second master started with
// the same flags recovers that job — it does not submit another — and
// finishes it with tested equal to the space.
func TestRestartResumesFromCheckpointDir(t *testing.T) {
	ctx := testContext(t)
	dir := filepath.Join(t.TempDir(), "state")
	args := []string{"-hash", noSuchDigest, "-all", "-max", "4", "-max-chunk", "2048", "-checkpoint", dir}
	slow := func(name string) netproto.WorkerConfig {
		cfg := worker(name)
		cfg.ProgressBatch, cfg.Throttle = 1024, 2*time.Millisecond
		return cfg
	}

	// First master: interrupted once a few committed leases are in the log.
	run1, interrupt := context.WithCancel(ctx)
	defer interrupt()
	m1 := startMaster(run1, args...)
	m1.attach(run1, t, slow("a1"), slow("b1"))
	for logged := int64(0); logged < 2048; {
		if st, err := os.Stat(filepath.Join(dir, "jobs.wal")); err == nil {
			logged = st.Size()
		}
		select {
		case err := <-m1.done:
			t.Fatalf("first master finished before it could be interrupted: %v\n%s", err, m1.out)
		case <-time.After(time.Millisecond):
		}
	}
	interrupt()
	if out, err := m1.wait(ctx, t); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run = %v, want context.Canceled\n%s", err, out)
	}
	mid := onlyJob(t, dir)
	if mid.State != jobs.StateRunning || mid.Tested == 0 || mid.Tested >= space1to4 {
		t.Fatalf("after the interrupt: state %s, tested %d of %d — not a mid-search state", mid.State, mid.Tested, space1to4)
	}

	// Second master, same flags, fresh workers.
	m2 := startMaster(ctx, args...)
	m2.attach(ctx, t, worker("a2"), worker("b2"))
	out, err := m2.wait(ctx, t)
	if err != nil {
		t.Fatalf("restart: %v\n%s", err, out)
	}
	for _, want := range []string{"resuming from checkpoint: " + mid.Remaining + " keys remaining", "tested 475254 keys"} {
		if !strings.Contains(out, want) {
			t.Errorf("restart output lacks %q:\n%s", want, out)
		}
	}
	end := onlyJob(t, dir)
	if end.ID != mid.ID || end.State != jobs.StateDone || end.Tested != space1to4 || end.Remaining != "0" {
		t.Fatalf("after the restart: job %s (was %s) %s, tested %d, remaining %s", end.ID, mid.ID, end.State, end.Tested, end.Remaining)
	}
}

// TestRefusesUnusableCheckpointDir: a directory that holds another search,
// or a log with one flipped byte, ends the command with an error before it
// listens for a single worker.
func TestRefusesUnusableCheckpointDir(t *testing.T) {
	seed := func(t *testing.T, maxLen int) string {
		dir := t.TempDir()
		s, err := jobs.Open(dir, jobs.StoreOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit("keymaster", 0, jobs.Spec{Algorithm: "md5", Target: noSuchDigest, Charset: keyspace.Lower.String(), MinLen: 1, MaxLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SetState(j.ID, jobs.StateRunning, ""); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	check := func(t *testing.T, dir string, wantErr func(error) bool) {
		ctx := testContext(t)
		out, err := startMaster(ctx, "-hash", noSuchDigest, "-all", "-max", "4", "-checkpoint", dir).wait(ctx, t)
		if err == nil || !wantErr(err) {
			t.Errorf("run = %v\n%s", err, out)
		}
		if strings.Contains(out, "listening on") {
			t.Errorf("the master went on to accept workers:\n%s", out)
		}
	}

	t.Run("different-spec", func(t *testing.T) {
		check(t, seed(t, 3), func(err error) bool { return strings.Contains(err.Error(), "different search") })
	})
	// -steal changes who searches a key, not which keys: the same search.
	t.Run("steal-toggled", func(t *testing.T) {
		ctx := testContext(t)
		m := startMaster(ctx, "-hash", noSuchDigest, "-all", "-max", "4", "-checkpoint", seed(t, 4), "-steal")
		m.attach(ctx, t, worker("steal-a"), worker("steal-b"))
		out, err := m.wait(ctx, t)
		if err != nil || !strings.Contains(out, "resuming from checkpoint") {
			t.Errorf("run = %v\n%s", err, out)
		}
	})
	t.Run("flipped-byte", func(t *testing.T) {
		dir := seed(t, 4)
		path := filepath.Join(dir, "jobs.wal")
		wal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wal[len(wal)/2] ^= 0x01
		if err := os.WriteFile(path, wal, 0o600); err != nil {
			t.Fatal(err)
		}
		check(t, dir, func(err error) bool { return errors.Is(err, frame.ErrCorrupt) })
	})
}

// TestShardedModeRefusesFleetFlags: a flag the sharded mode cannot honour
// is an error, not a silently dropped setting.
func TestShardedModeRefusesFleetFlags(t *testing.T) {
	for _, flags := range [][]string{
		{"-jobs-fleet", "1"}, {"-steal"}, {"-min-steal", "8192"}, {"-progress-every", "1s"},
	} {
		args := append([]string{"-jobs", t.TempDir(), "-jobs-shards", "2"}, flags...)
		if err := run(testContext(t), args, io.Discard); err == nil || !strings.Contains(err.Error(), "not supported with -jobs-shards") {
			t.Errorf("%v: run = %v", flags, err)
		}
	}
}
