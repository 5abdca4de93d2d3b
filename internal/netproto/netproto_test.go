package netproto

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
)

func testJob(t *testing.T, password string) JobSpec {
	t.Helper()
	return JobSpec{
		Algorithm: cracker.MD5,
		Kind:      cracker.KernelOptimized,
		Target:    cracker.MD5.HashKey([]byte(password)),
		Charset:   keyspace.Lower.String(),
		MinLen:    1,
		MaxLen:    3,
		Order:     keyspace.PrefixMajor,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgSearch, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgSearch || string(payload) != "payload" {
		t.Errorf("got %d %q", typ, payload)
	}
}

func TestFrameMalformed(t *testing.T) {
	// Oversized length header.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgHello)})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
	// Unknown type.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0, 99})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Error("unknown type accepted")
	}
	// Truncated stream.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 9, byte(MsgJob), 1, 2})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	h, err := DecodeHello(EncodeHello(Hello{Version: 1, Name: "worker-7"}))
	if err != nil || h.Name != "worker-7" || h.Version != 1 {
		t.Errorf("hello: %+v %v", h, err)
	}

	spec := JobSpec{
		Algorithm:  cracker.SHA1,
		Kind:       cracker.KernelPlain,
		Target:     bytes.Repeat([]byte{0xab}, 20),
		SaltPrefix: []byte("pre"),
		SaltSuffix: []byte("suf"),
		Charset:    "abc123",
		MinLen:     2,
		MaxLen:     6,
		Order:      keyspace.PrefixMajor,
	}
	j, err := DecodeJob(EncodeJob(spec))
	if err != nil {
		t.Fatal(err)
	}
	if j.Algorithm != spec.Algorithm || j.Kind != spec.Kind || !bytes.Equal(j.Target, spec.Target) ||
		string(j.SaltPrefix) != "pre" || string(j.SaltSuffix) != "suf" ||
		j.Charset != spec.Charset || j.MinLen != 2 || j.MaxLen != 6 || j.Order != spec.Order {
		t.Errorf("job round trip: %+v", j)
	}

	tr, err := DecodeTuneResult(EncodeTuneResult(TuneResult{MinBatch: 12345, Throughput: 9.5e6}))
	if err != nil || tr.MinBatch != 12345 || tr.Throughput != 9.5e6 {
		t.Errorf("tune: %+v %v", tr, err)
	}

	sr, err := DecodeSearch(EncodeSearch(SearchRequest{SpecID: 0xfeedbeef, Start: keyspace.IDOf(100), End: keyspace.IDOf(2000)}))
	if err != nil || sr.SpecID != 0xfeedbeef || sr.Start != keyspace.IDOf(100) || sr.End != keyspace.IDOf(2000) {
		t.Errorf("search: %+v %v", sr, err)
	}

	tq, err := DecodeTuneRequest(EncodeTuneRequest(TuneRequest{SpecID: 42}))
	if err != nil || tq.SpecID != 42 {
		t.Errorf("tune request: %+v %v", tq, err)
	}

	sf, err := DecodeSpec(EncodeSpec(spec))
	if err != nil || sf.ID != SpecID(spec) || sf.Spec.Charset != spec.Charset || !bytes.Equal(sf.Spec.Target, spec.Target) {
		t.Errorf("spec frame: %+v %v", sf, err)
	}

	res, err := DecodeSearchResult(EncodeSearchResult(SearchResult{
		Found:   [][]byte{[]byte("aa"), []byte("bb")},
		Tested:  777,
		Elapsed: 3 * time.Second,
	}))
	if err != nil || len(res.Found) != 2 || string(res.Found[1]) != "bb" || res.Tested != 777 || res.Elapsed != 3*time.Second {
		t.Errorf("result: %+v %v", res, err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeJob([]byte{1, 2, 3}); err == nil {
		t.Error("short job accepted")
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Error("empty hello accepted")
	}
	bad := EncodeJob(JobSpec{Algorithm: cracker.Algorithm(9), Charset: "abc", Order: keyspace.SuffixMajor})
	if _, err := DecodeJob(bad); err == nil {
		t.Error("bad algorithm accepted")
	}
	// Trailing bytes.
	good := EncodeTuneResult(TuneResult{})
	if _, err := DecodeTuneResult(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Spec frame whose carried ID does not hash to its content.
	frame := EncodeSpec(JobSpec{Algorithm: cracker.MD5, Charset: "abc", MinLen: 1, MaxLen: 2, Order: keyspace.PrefixMajor})
	frame[0] ^= 0x80
	if _, err := DecodeSpec(frame); err == nil {
		t.Error("spec ID mismatch accepted")
	}
	if _, err := DecodeSpec([]byte{1, 2, 3}); err == nil {
		t.Error("short spec frame accepted")
	}
}

// TestEndToEndCrack runs a real master and three worker connections over
// loopback TCP and cracks a password through the standard dispatcher.
func TestEndToEndCrack(t *testing.T) {
	spec := testJob(t, "net")
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 3; i++ {
		name := string(rune('A' + i))
		go func() {
			_ = Dial(ctx, m.Addr(), WorkerConfig{Name: "worker-" + name, Workers: 2, TuneStart: 1024})
		}()
	}
	workers, err := m.AcceptWorkers(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 3 {
		t.Fatalf("workers = %d", len(workers))
	}

	d := dispatch.NewDispatcher("tcp-root", dispatch.Options{MaxSolutions: 1}, bindWorkers(spec, workers)...)
	space, _ := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	rep, err := d.Search(ctx, space.Whole())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Found) == 0 || string(rep.Found[0]) != "net" {
		t.Errorf("found %q", rep.Found)
	}
}

// TestWorkerDeathMidSearch: killing a worker's connection mid-run must not
// break the search — the dispatcher reassigns to the survivor.
func TestWorkerDeathMidSearch(t *testing.T) {
	spec := testJob(t, "zzz") // last key: the space must be fully searched
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Victim worker: dial raw so we can slam the connection shut.
	victimConn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	victimCtx, victimCancel := context.WithCancel(ctx)
	go func() {
		_ = ServeConn(victimCtx, victimConn, WorkerConfig{Name: "victim", Workers: 1, TuneStart: 512})
	}()
	go func() {
		_ = Dial(ctx, m.Addr(), WorkerConfig{Name: "survivor", Workers: 2, TuneStart: 1024})
	}()

	workers, err := m.AcceptWorkers(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim shortly after the search starts.
	go func() {
		time.Sleep(50 * time.Millisecond)
		victimCancel()
		victimConn.Close()
	}()

	d := dispatch.NewDispatcher("tcp-root", dispatch.Options{}, bindWorkers(spec, workers)...)
	space, _ := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	rep, err := d.Search(ctx, space.Whole())
	if err != nil {
		t.Fatalf("search failed despite a survivor: %v", err)
	}
	if len(rep.Found) != 1 || string(rep.Found[0]) != "zzz" {
		t.Errorf("found %q", rep.Found)
	}
}

// TestVersionMismatch: a worker with the wrong protocol version must be
// rejected at registration — a v4 peer, which cannot forget specs (v5),
// as much as one from the future.
func TestVersionMismatch(t *testing.T) {
	for _, version := range []int{99, 4} {
		m, err := NewMaster("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		reply := make(chan MsgType, 1)
		go func() {
			conn, err := net.Dial("tcp", m.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = WriteFrame(conn, MsgHello, EncodeHello(Hello{Version: version, Name: "old"}))
			if typ, _, err := ReadFrame(conn); err == nil {
				reply <- typ
			}
		}()
		if _, err := m.AcceptWorkers(ctx, 1); err == nil {
			t.Errorf("version %d accepted by a v%d master", version, Version)
		}
		// The refused worker is told why, not just hung up on.
		select {
		case typ := <-reply:
			if typ != MsgError {
				t.Errorf("v%d refusal frame type = %d, want MsgError", version, typ)
			}
		case <-ctx.Done():
			t.Errorf("no refusal frame for v%d before the hangup", version)
		}
	}
}

// TestMasterRejectsGarbage: raw garbage bytes at registration must not
// wedge or crash the master.
func TestMasterRejectsGarbage(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		conn, err := net.Dial("tcp", m.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("GET / HTTP/1.1\r\nHost: example\r\n\r\n"))
	}()
	if _, err := m.AcceptWorkers(ctx, 1); err == nil {
		t.Error("garbage registration accepted")
	}
}

// TestDecodeSearchResultBounds: a frame claiming an implausible number of
// found keys must be rejected before any allocation storm.
func TestDecodeSearchResultBounds(t *testing.T) {
	var e enc
	e.u32(1 << 30) // claimed found count
	if _, err := DecodeSearchResult(e.b); err == nil {
		t.Error("implausible found count accepted")
	}
}

// TestWorkerRejectsNonHelloFirstMessage: the master's first frame must be
// the handshake ack; anything else — including a v1 master's MsgJob —
// fails the registration with a targeted error.
func TestWorkerRejectsNonHelloFirstMessage(t *testing.T) {
	run := func(t *testing.T, reply func(client net.Conn) error) error {
		t.Helper()
		client, server := net.Pipe()
		defer client.Close()
		done := make(chan error, 1)
		go func() {
			done <- ServeConn(context.Background(), server, WorkerConfig{Name: "w"})
		}()
		// Read the hello, then answer with the wrong frame.
		if _, _, err := ReadFrame(client); err != nil {
			t.Fatal(err)
		}
		if err := reply(client); err != nil {
			t.Fatal(err)
		}
		return <-done
	}

	err := run(t, func(c net.Conn) error {
		return WriteFrame(c, MsgSearch, EncodeSearch(SearchRequest{End: keyspace.IDOf(1)}))
	})
	if err == nil {
		t.Error("worker accepted a non-hello first message")
	}

	err = run(t, func(c net.Conn) error {
		return WriteFrame(c, MsgJob, EncodeJob(testJob(t, "abc")))
	})
	if err == nil || !strings.Contains(err.Error(), "protocol v1") {
		t.Errorf("v1 master's job frame: err = %v, want a protocol v1 mention", err)
	}
}

// TestSearchOutOfSpaceInterval: the worker must answer MsgError (not die)
// for an interval beyond its space.
func TestSearchOutOfSpaceInterval(t *testing.T) {
	spec := testJob(t, "abc")
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		_ = DialRetry(ctx, m.Addr(), WorkerConfig{Name: "w", Workers: 1}, RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond})
	}()
	workers, err := m.AcceptWorkers(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workers[0].SearchSpec(ctx, spec, keyspace.NewInterval(0, 1<<40)); err == nil {
		t.Error("out-of-space interval accepted")
	}
	// The worker must still serve searches afterwards (the master may
	// resync the connection after an ambiguous error, so allow a redial).
	rep, err := workers[0].SearchSpec(ctx, spec, keyspace.NewInterval(0, 100))
	if err != nil || rep.Tested != 100 {
		t.Errorf("post-error search: %+v, %v", rep, err)
	}
}

// TestUnknownSpecID: a search naming a spec the connection never
// registered must come back as a remote error, not wedge the worker.
func TestUnknownSpecID(t *testing.T) {
	spec := testJob(t, "abc")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	client, server := net.Pipe()
	defer client.Close()
	go func() { _ = ServeConn(ctx, server, WorkerConfig{Name: "w", Workers: 1}) }()
	if _, _, err := ReadFrame(client); err != nil { // worker hello
		t.Fatal(err)
	}
	if err := WriteFrame(client, MsgHello, EncodeHello(Hello{Version: Version, Name: "master"})); err != nil {
		t.Fatal(err)
	}
	req := SearchRequest{SpecID: SpecID(spec), End: keyspace.IDOf(10)}
	if err := WriteFrame(client, MsgSearch, EncodeSearch(req)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(client)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError || !strings.Contains(string(payload), "unknown spec") {
		t.Errorf("got type %d %q, want an unknown-spec MsgError", typ, payload)
	}
}

// TestMultiSpecFleet: one fleet serves two different jobs concurrently —
// the v2 protocol's whole point. Both dispatchers share the same two
// RemoteWorkers via Bind, and both passwords must be found.
func TestMultiSpecFleet(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		name := string(rune('A' + i))
		go func() {
			_ = Dial(ctx, m.Addr(), WorkerConfig{Name: "worker-" + name, Workers: 2, TuneStart: 1024})
		}()
	}
	workers, err := m.AcceptWorkers(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}

	space, _ := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	results := make(chan error, 2)
	for _, password := range []string{"cat", "dog"} {
		spec := testJob(t, password)
		go func() {
			d := dispatch.NewDispatcher("fleet-"+password, dispatch.Options{MaxSolutions: 1}, bindWorkers(spec, workers)...)
			rep, err := d.Search(ctx, space.Whole())
			if err != nil {
				results <- err
				return
			}
			if len(rep.Found) == 0 || string(rep.Found[0]) != password {
				results <- fmt.Errorf("job %q found %q", password, rep.Found)
				return
			}
			results <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
}
