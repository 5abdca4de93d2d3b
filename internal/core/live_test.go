package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"keysearch/internal/keyspace"
)

// TestSearchShortIntervalUsesEveryWorker: an interval no longer than one
// default claim — every lease size the tuner picks — is still split across
// the goroutines. Each goroutine's first candidate parks until all eight
// have one, so the count does not depend on how many CPUs the host has.
func TestSearchShortIntervalUsesEveryWorker(t *testing.T) {
	space := lowerSpace(t, 1, 4)
	const workers = 8
	var started atomic.Int32
	all := make(chan struct{})
	newTest := func() TestFunc {
		first := true
		return func([]byte) bool {
			if first {
				first = false
				if started.Add(1) == workers {
					close(all)
				}
				select {
				case <-all:
				case <-time.After(5 * time.Second): // the count below reports it
				}
			}
			return false
		}
	}
	res, err := SearchEach(context.Background(), KeyspaceFactory(space), keyspace.NewInterval(0, defaultChunkSize),
		newTest, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if got := started.Load(); got != workers {
		t.Errorf("%d of %d goroutines tested a key", got, workers)
	}
	if res.Tested != defaultChunkSize || !res.Exhausted {
		t.Errorf("tested %d of %d, exhausted %v", res.Tested, defaultChunkSize, res.Exhausted)
	}
}

// TestLiveHandleEdges pins what a Live accepts outside a running search.
func TestLiveHandleEdges(t *testing.T) {
	space := lowerSpace(t, 1, 2)
	never := func([]byte) bool { return false }
	iv := keyspace.NewInterval(0, 500)

	// A shrink that arrives before the search has started is honoured.
	live := NewLive(iv, nil)
	if cut, ok := live.Shrink(100); !ok || cut != 100 {
		t.Fatalf("early shrink = %d, %v", cut, ok)
	}
	res, err := Search(context.Background(), KeyspaceFactory(space), iv, never, Options{Workers: 2, ChunkSize: 30, Live: live})
	if err != nil || res.Tested != 100 {
		t.Fatalf("shrunk search tested %d (%v), want 100", res.Tested, err)
	}
	// Once everything is claimed there is nothing left to cut...
	if cut, ok := live.Shrink(10); ok {
		t.Errorf("finished search shrunk to %d", cut)
	}
	// ...and the handle cannot drive a second search, or another interval's.
	if _, err := Search(context.Background(), KeyspaceFactory(space), iv, never, Options{Live: live}); err == nil {
		t.Error("reused handle accepted")
	}
	if _, err := Search(context.Background(), KeyspaceFactory(space), keyspace.NewInterval(0, 400), never,
		Options{Live: NewLive(iv, nil)}); err == nil {
		t.Error("handle for another interval accepted")
	}
	// An interval wider than uint64 refuses to shrink.
	wide := keyspace.Interval{End: keyspace.ID{Hi: 1 << 6}}
	if cut, ok := NewLive(wide, nil).Shrink(10); ok {
		t.Errorf("wide interval shrunk to %d", cut)
	}
}

// TestQuickShrinkRacesSearch is the exactness property of the one claim
// loop: random Shrink calls race a 1–8-goroutine search over random
// intervals and chunk sizes, and whatever the interleaving
//   - the tested set is exactly [start, start+final limit), each
//     identifier once;
//   - nothing at or past an acked cut is tested after the ack;
//   - an acked cut is ≥ the request and below the previous limit, and a
//     refused shrink changes nothing;
//   - every mark names tested identifiers only and never exceeds the
//     final limit.
//
// It runs over both walks: SearchEach's per-candidate loop, and SearchRuns'
// run pieces — each piece counted as the consecutive identifiers it covers,
// and checked to stay inside one prefix-major run. The run walk's space has
// three symbols and lengths 0–8, so chunks cross run and length boundaries
// all the time.
func TestQuickShrinkRacesSearch(t *testing.T) {
	t.Run("each", func(t *testing.T) { quickShrinkRacesSearch(t, lowerSpace(t, 1, 3), false) })
	t.Run("runs", func(t *testing.T) {
		quickShrinkRacesSearch(t, keyspace.MustNew(keyspace.MustCharset("abc"), 0, 8, keyspace.PrefixMajor), true)
	})
}

func quickShrinkRacesSearch(t *testing.T, space *keyspace.Space, runs bool) {
	size, _ := space.Size64()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + uint64(rng.Intn(4096))
		start := uint64(rng.Int63n(int64(size - n + 1)))
		iv := keyspace.NewInterval(int64(start), int64(start+n))
		opt := Options{Workers: 1 + rng.Intn(8), ChunkSize: uint64(rng.Intn(200))} // 0 = derived
		// Shrinks fire from inside the search, on whichever goroutine makes
		// the at[i]-th test call, while the others keep claiming.
		at := make(map[uint64]uint64)
		for i := rng.Intn(6); i > 0; i-- {
			at[uint64(rng.Intn(int(n)))] = uint64(rng.Intn(int(n) + 200))
		}

		counts := make([]atomic.Int32, n)
		var (
			calls   atomic.Uint64
			acked   atomic.Uint64 // lowest cut acked so far
			smu     sync.Mutex    // orders the shrinks among themselves; guards limit, maxMark
			limit   = n           // what the acks say the search's end is
			maxMark uint64
			failed  atomic.Bool
		)
		fail := func(format string, args ...any) {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			failed.Store(true)
		}
		acked.Store(math.MaxUint64)
		opt.Live = NewLive(iv, func(mark uint64) {
			for off := uint64(0); off < mark; off++ {
				if counts[off].Load() != 1 {
					fail("mark %d names offset %d, tested %d times", mark, off, counts[off].Load())
					return
				}
			}
			smu.Lock()
			maxMark = max(maxMark, mark)
			smu.Unlock()
		})
		visit := func(id uint64) {
			if id < start || id >= start+n {
				fail("foreign candidate %d", id)
				return
			}
			off := id - start
			counts[off].Add(1)
			if cut := acked.Load(); off >= cut {
				fail("offset %d tested after a cut at %d was acked", off, cut)
			}
			k := calls.Add(1)
			if keep, fire := at[k-1]; fire {
				smu.Lock()
				cut, shrunk := opt.Live.Shrink(keep)
				if shrunk {
					if cut < keep || cut >= limit {
						fail("shrink(%d) acked %d, limit was %d", keep, cut, limit)
					}
					limit = cut
					acked.Store(cut)
				}
				smu.Unlock()
			}
			if k%61 == 0 {
				runtime.Gosched() // interleave even on one CPU
			}
		}
		var (
			res *Result
			err error
		)
		if runs {
			res, err = SearchRuns(context.Background(), space, iv, func() RunTestFunc {
				return func(key []byte, k int, m uint64, found [][]byte) [][]byte {
					at, err := space.ID(key)
					id := at.Uint64()
					if err != nil {
						fail("foreign run key %q", key)
						return found
					}
					if last := space.Key64(id + m - 1); len(last) != len(key) || string(last[k:]) != string(key[k:]) {
						fail("run piece of %d from %q (k=%d) ends on %q, outside its run", m, key, k, last)
					}
					for j := uint64(0); j < m; j++ {
						visit(id + j)
					}
					return found
				}
			}, opt)
		} else {
			res, err = Search(context.Background(), KeyspaceFactory(space), iv, func(c []byte) bool {
				if id, err := space.ID(c); err != nil {
					fail("foreign candidate %q", c)
				} else {
					visit(id.Uint64())
				}
				return false
			}, opt)
		}
		if err != nil {
			fail("search: %v", err)
			return false
		}
		if res.Tested != limit {
			fail("tested %d, final limit %d", res.Tested, limit)
		}
		for off := range counts {
			want := int32(0)
			if uint64(off) < limit {
				want = 1
			}
			if got := counts[off].Load(); got != want {
				fail("offset %d tested %d times, want %d (final limit %d)", off, got, want, limit)
				break
			}
		}
		if maxMark > limit {
			fail("mark %d past the final limit %d", maxMark, limit)
		}
		return !failed.Load()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
