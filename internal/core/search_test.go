package core

import (
	"bytes"
	"context"
	"sort"
	"sync/atomic"
	"testing"

	"keysearch/internal/keyspace"
)

func lowerSpace(t *testing.T, minLen, maxLen int) *keyspace.Space {
	t.Helper()
	s, err := keyspace.New(keyspace.Lower, minLen, maxLen, keyspace.SuffixMajor)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSearchFindsTarget(t *testing.T) {
	space := lowerSpace(t, 1, 3)
	target := []byte("ok")
	res, err := Search(context.Background(), KeyspaceFactory(space), space.Whole(),
		func(c []byte) bool { return bytes.Equal(c, target) },
		Options{Workers: 4, ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0]) != "ok" {
		t.Fatalf("solutions = %q", res.Solutions)
	}
	if !res.Exhausted {
		t.Error("search should be exhausted")
	}
	size, _ := space.Size64()
	if res.Tested != size {
		t.Errorf("tested %d of %d", res.Tested, size)
	}
}

// TestSearchCoversEveryCandidateOnce: conservation property — with any
// worker/chunk configuration every candidate is tested exactly once.
func TestSearchCoversEveryCandidateOnce(t *testing.T) {
	space := lowerSpace(t, 1, 2)
	size, _ := space.Size64()
	for _, cfg := range []Options{
		{Workers: 1, ChunkSize: 1},
		{Workers: 3, ChunkSize: 7},
		{Workers: 8, ChunkSize: 1000},
		{Workers: 2, ChunkSize: uint64(size)},
	} {
		counts := make([]int32, size)
		_, err := Search(context.Background(), KeyspaceFactory(space), space.Whole(),
			func(c []byte) bool {
				id, err := space.ID(c)
				if err != nil {
					t.Errorf("foreign candidate %q", c)
					return false
				}
				atomic.AddInt32(&counts[id.Uint64()], 1)
				return false
			}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id, n := range counts {
			if n != 1 {
				t.Fatalf("cfg %+v: candidate %d tested %d times", cfg, id, n)
			}
		}
	}
}

func TestSearchSubInterval(t *testing.T) {
	space := lowerSpace(t, 1, 2)
	iv := keyspace.NewInterval(10, 40)
	var tested int64
	res, err := Search(context.Background(), KeyspaceFactory(space), iv,
		func(c []byte) bool { atomic.AddInt64(&tested, 1); return false },
		Options{Workers: 2, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested != 30 || tested != 30 {
		t.Errorf("tested = %d / %d, want 30", res.Tested, tested)
	}
}

func TestSearchMaxSolutions(t *testing.T) {
	space := lowerSpace(t, 1, 3)
	res, err := Search(context.Background(), KeyspaceFactory(space), space.Whole(),
		func(c []byte) bool { return len(c) == 2 }, // 676 solutions available
		Options{Workers: 4, ChunkSize: 64, MaxSolutions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) < 5 {
		t.Errorf("found %d solutions, want >= 5", len(res.Solutions))
	}
	if res.Exhausted {
		t.Error("early-stopped search must not report exhaustion")
	}
	size, _ := space.Size64()
	if res.Tested >= size {
		t.Errorf("early stop tested the whole space (%d)", res.Tested)
	}
}

func TestSearchContextCancel(t *testing.T) {
	space := lowerSpace(t, 1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var tested int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := Search(ctx, KeyspaceFactory(space), space.Whole(),
			func(c []byte) bool {
				if atomic.AddInt64(&tested, 1) == 1000 {
					cancel()
				}
				return false
			}, Options{Workers: 2, ChunkSize: 128})
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if res.Exhausted {
			t.Error("cancelled search must not report exhaustion")
		}
	}()
	<-done
	size, _ := space.Size64()
	if uint64(tested) >= size {
		t.Errorf("cancellation did not stop the search (tested %d)", tested)
	}
}

func TestSearchEmptyInterval(t *testing.T) {
	space := lowerSpace(t, 1, 2)
	res, err := Search(context.Background(), KeyspaceFactory(space),
		keyspace.NewInterval(5, 5),
		func(c []byte) bool { return true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested != 0 || !res.Exhausted {
		t.Errorf("empty interval: %+v", res)
	}
}

func TestSearchInvalidInterval(t *testing.T) {
	space := lowerSpace(t, 1, 2)
	if _, err := Search(context.Background(), KeyspaceFactory(space),
		keyspace.NewInterval(0, 1<<40), func(c []byte) bool { return false }, Options{}); err == nil {
		t.Error("interval beyond space: want error")
	}
	if _, err := Search(context.Background(), nil, space.Whole(), nil, Options{}); err == nil {
		t.Error("nil factory: want error")
	}
}

func TestSearchProgress(t *testing.T) {
	space := lowerSpace(t, 1, 2)
	var calls int32
	var last uint64
	_, err := Search(context.Background(), KeyspaceFactory(space), space.Whole(),
		func(c []byte) bool { return false },
		Options{Workers: 1, ChunkSize: 100,
			Live: NewLive(space.Whole(), func(tested uint64) { atomic.AddInt32(&calls, 1); last = tested })})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("progress never called")
	}
	size, _ := space.Size64()
	if last > size {
		t.Errorf("progress overshot: %d > %d", last, size)
	}
}

// TestSearchSolutionsAreCopies guards against aliasing the enumerator's
// internal buffer.
func TestSearchSolutionsAreCopies(t *testing.T) {
	space := lowerSpace(t, 2, 2)
	res, err := Search(context.Background(), KeyspaceFactory(space), space.Whole(),
		func(c []byte) bool { return c[0] == 'm' }, Options{Workers: 1, ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 26 {
		t.Fatalf("found %d, want 26", len(res.Solutions))
	}
	seen := make(map[string]bool)
	for _, s := range res.Solutions {
		seen[string(s)] = true
	}
	if len(seen) != 26 {
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t.Errorf("solutions alias each other: %v", keys)
	}
}

func TestKeyEnumeratorSeekError(t *testing.T) {
	space := lowerSpace(t, 1, 2)
	e := NewKeyEnumerator(space)
	if err := e.Seek(keyspace.IDOf(1 << 40)); err == nil {
		t.Error("seek out of range: want error")
	}
}
