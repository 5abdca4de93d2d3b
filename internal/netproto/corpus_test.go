package netproto

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/targetset"
)

// corpusSpec builds a multi-target jobs.Spec planting the given keys
// (plus noise digests no in-space key hashes to) over lowercase 1..3.
func corpusSpec(t *testing.T, planted []string, noise int) jobs.Spec {
	t.Helper()
	var targets []string
	for _, k := range planted {
		sum := md5.Sum([]byte(k))
		targets = append(targets, hex.EncodeToString(sum[:]))
	}
	for i := 0; i < noise; i++ {
		sum := md5.Sum([]byte(fmt.Sprintf("NOISE-%d", i))) // uppercase: outside the space
		targets = append(targets, hex.EncodeToString(sum[:]))
	}
	return jobs.Spec{
		Algorithm: "md5",
		Targets:   targets,
		Charset:   keyspace.Lower.String(),
		MinLen:    1,
		MaxLen:    3,
	}
}

func TestCorpusChunkRoundTrip(t *testing.T) {
	c := CorpusChunk{ID: 0xdeadbeefcafe, Total: 100, Offset: 30, Data: []byte("0123456789")}
	back, err := DecodeCorpusChunk(EncodeCorpusChunk(c))
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != c.ID || back.Total != c.Total || back.Offset != c.Offset || !bytes.Equal(back.Data, c.Data) {
		t.Errorf("round trip changed the chunk: %+v", back)
	}

	// Rejections: truncation, trailing bytes, empty data, overrun.
	if _, err := DecodeCorpusChunk([]byte{1, 2, 3}); err == nil {
		t.Error("short chunk accepted")
	}
	if _, err := DecodeCorpusChunk(append(EncodeCorpusChunk(c), 0xcc)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeCorpusChunk(EncodeCorpusChunk(CorpusChunk{ID: 1, Total: 8})); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := DecodeCorpusChunk(EncodeCorpusChunk(CorpusChunk{ID: 1, Total: 4, Offset: 2, Data: []byte("abc")})); err == nil {
		t.Error("overrunning chunk accepted")
	}
}

// TestCorpusFramesTile: the chunker must cover the blob exactly, in
// order, under the frame cap, with every chunk carrying the blob's
// content hash — and that hash must equal targetset.ID.
func TestCorpusFramesTile(t *testing.T) {
	blob := make([]byte, CorpusChunkSize*2+777) // three chunks, last partial
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	frames := CorpusFrames(blob)
	if len(frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(frames))
	}
	var rebuilt []byte
	for i, p := range frames {
		if len(p) > MaxFrame {
			t.Fatalf("frame %d exceeds MaxFrame", i)
		}
		ck, err := DecodeCorpusChunk(p)
		if err != nil {
			t.Fatal(err)
		}
		if ck.ID != targetset.ID(blob) {
			t.Fatalf("chunk %d carries ID %016x, blob hashes to %016x", i, ck.ID, targetset.ID(blob))
		}
		if int(ck.Total) != len(blob) || int(ck.Offset) != len(rebuilt) {
			t.Fatalf("chunk %d geometry: total=%d offset=%d, assembled %d of %d", i, ck.Total, ck.Offset, len(rebuilt), len(blob))
		}
		rebuilt = append(rebuilt, ck.Data...)
	}
	if !bytes.Equal(rebuilt, blob) {
		t.Fatal("reassembled blob differs")
	}
}

// TestWireSpecCorpus: a multi-target jobs.Spec converts to a wire spec
// whose CorpusID content-addresses the returned blob, and the blob
// decodes back to a set holding every planted digest.
func TestWireSpecCorpus(t *testing.T) {
	spec := corpusSpec(t, []string{"abc", "zz"}, 100)
	ws, blob, err := new(Executor).bind(spec)
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil || ws.CorpusID == 0 || len(ws.Target) != 0 {
		t.Fatalf("wire spec: corpusID=%016x target=%x blob=%d bytes", ws.CorpusID, ws.Target, len(blob))
	}
	if ws.CorpusID != targetset.ID(blob) {
		t.Fatal("CorpusID does not content-address the blob")
	}
	set, err := targetset.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum([]byte("abc"))
	if !set.Contains(sum[:]) {
		t.Fatal("decoded corpus misses a planted digest")
	}

	// Single-target conversion still yields no blob.
	sum = md5.Sum([]byte("one"))
	ws1, blob1, err := new(Executor).bind(jobs.Spec{
		Algorithm: "md5", Target: hex.EncodeToString(sum[:]),
		Charset: "ab", MinLen: 1, MaxLen: 2,
	})
	if err != nil || blob1 != nil || ws1.CorpusID != 0 {
		t.Fatalf("single-target: blob=%v corpusID=%d err=%v", blob1, ws1.CorpusID, err)
	}
}

// TestCorpusEndToEnd drives a real master and two TCP workers through a
// multi-target search: the corpus streams over MsgCorpus ahead of the
// spec, and the fleet's hit set must be exactly the planted keys.
func TestCorpusEndToEnd(t *testing.T) {
	planted := []string{"a", "ko", "net", "zzz"}
	spec := corpusSpec(t, planted, 300)

	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("corpus-worker-%d", i)
		go func() {
			_ = Dial(ctx, m.Addr(), WorkerConfig{Name: name, Workers: 2, TuneStart: 1024})
		}()
	}
	workers, err := m.AcceptWorkers(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([]dispatch.Worker, len(workers))
	for i, w := range workers {
		ex := NewExecutor(w)
		fleet[i] = &dispatch.FuncWorker{
			WorkerName: ex.Name(),
			TuneFunc:   ex.Tune,
			SearchFunc: func(ctx context.Context, iv keyspace.Interval) (*dispatch.Report, error) {
				return ex.Search(ctx, spec, iv)
			},
		}
	}

	d := dispatch.NewDispatcher("corpus-root", dispatch.Options{}, fleet...)
	space, _ := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	rep, err := d.Search(ctx, space.Whole())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.Found {
		got = append(got, string(f))
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(planted) {
		t.Errorf("fleet found %v, want %v", got, planted)
	}
	size, _ := space.Size64()
	if rep.Tested != size {
		t.Errorf("tested %d of %d", rep.Tested, size)
	}
}

// TestCorpusUnregisteredRefused: a spec naming a corpus the call does not
// carry must fail the call without touching the worker.
func TestCorpusUnregisteredRefused(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	go func() {
		_ = Dial(ctx, m.Addr(), WorkerConfig{Name: "orphan", Workers: 1})
	}()
	workers, err := m.AcceptWorkers(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws := JobSpec{
		Algorithm: cracker.MD5,
		Kind:      cracker.KernelOptimized,
		Charset:   "ab",
		MinLen:    1,
		MaxLen:    2,
		Order:     keyspace.PrefixMajor,
		CorpusID:  0x1234,
	}
	_, err = workers[0].SearchSpec(ctx, ws, keyspace.NewInterval(0, 2))
	if err == nil || !strings.Contains(err.Error(), "carries no corpus") {
		t.Fatalf("unregistered corpus: err = %v", err)
	}
}

// FuzzCorpusChunk: arbitrary bytes through the chunk codec must never
// panic, and whatever decodes must re-encode byte-identically.
func FuzzCorpusChunk(f *testing.F) {
	f.Add(EncodeCorpusChunk(CorpusChunk{ID: 7, Total: 10, Offset: 0, Data: []byte("0123456789")}))
	f.Add(EncodeCorpusChunk(CorpusChunk{ID: ^uint64(0), Total: 1 << 26, Offset: 1 << 20, Data: []byte("x")}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCorpusChunk(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeCorpusChunk(ck), data) {
			t.Fatal("corpus chunk round trip changed the bytes")
		}
	})
}
