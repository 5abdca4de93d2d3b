package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"keysearch/internal/keyspace"
)

// Live is the handle on one running search: where it may be cut, and how
// far it has got. Offsets count identifiers from the interval's start. The
// invariant limit ≥ claimed ≥ mark holds at all times — a shrink can only
// land on work no goroutine has begun, which is what makes the acked
// boundary exact.
type Live struct {
	onChunk func(mark uint64)
	total   uint64 // length of the interval the handle was built for
	wide    bool   // that interval is wider than uint64: its end cannot move

	mu      sync.Mutex
	limit   uint64         // the search ends at this offset
	claimed uint64         // offsets below this have been handed to a goroutine
	busy    map[int]uint64 // goroutine → start offset of its chunk in flight
	stopped bool           // MaxSolutions reached: nothing further is claimed
}

// NewLive returns the handle for one search of iv, shrinkable from this
// moment on. onChunk, when non-nil, is called after every completed chunk,
// on the goroutine that tested it and outside the search's lock, with the
// tested-prefix mark: every identifier below it has been tested. Marks
// from different goroutines may arrive out of order. A goroutine claims its
// next chunk only once onChunk has returned.
func NewLive(iv keyspace.Interval, onChunk func(mark uint64)) *Live {
	l := &Live{onChunk: onChunk}
	if n, ok := iv.Len64(); ok {
		l.total, l.limit = n, n
	} else {
		// A search counts what it tested in a uint64, so a wider interval
		// can be searched for an early exit but never exhausted.
		l.wide, l.limit = true, math.MaxUint64
	}
	return l
}

// Shrink lowers the search's end to keep — rounded up past every chunk
// already claimed — and reports the effective boundary: the search tests
// exactly the first cut identifiers. ok is false, and nothing changes, when
// everything at or after keep is already claimed (the caller's split would
// gain nothing) or the interval is wider than uint64.
func (l *Live) Shrink(keep uint64) (cut uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cut = max(keep, l.claimed)
	if l.wide || cut >= l.limit {
		return l.limit, false
	}
	l.limit = cut
	return cut, true
}

// claim hands goroutine w the next chunk of at most chunk identifiers;
// n = 0 when the search has reached its (possibly shrunk) end.
func (l *Live) claim(w int, chunk uint64) (off, n uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n = min(chunk, l.limit-l.claimed)
	if l.stopped || n == 0 {
		return 0, 0
	}
	off = l.claimed
	l.claimed += n
	l.busy[w] = off
	return off, n
}

// finish retires goroutine w's chunk and returns the tested-prefix mark:
// chunks are claimed in order, so everything below the lowest chunk still
// in flight — or below claimed, when none is — has been tested.
func (l *Live) finish(w int) (mark uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.busy, w)
	mark = l.claimed
	for _, off := range l.busy {
		mark = min(mark, off)
	}
	return mark
}

// walkFunc tests the n candidates from enum's position on, advancing with
// the next operator. It reports false after sending an error on the pool's
// errCh; its chunk then stays in flight, so no mark passes it.
type walkFunc func(enum Enumerator, n uint64) (ok bool)

// pool is the one place an interval becomes units of work: interval
// validation, defaults and the claim loop, under both SearchEach and
// SearchBest, which differ only in what they do to a candidate.
type pool struct {
	*Live
	factory Factory
	start   keyspace.ID
	workers int
	chunk   uint64
	errCh   chan error
}

func newPool(factory Factory, iv keyspace.Interval, opt Options) (*pool, error) {
	if size := factory.Size(); iv.End.Cmp(size) > 0 {
		return nil, fmt.Errorf("core: interval %v outside space [0, %v)", iv, size)
	}
	p := &pool{Live: opt.Live, factory: factory, start: iv.Start, workers: opt.Workers, chunk: opt.ChunkSize}
	if p.Live == nil {
		p.Live = NewLive(iv, nil)
	} else if n, fits := iv.Len64(); p.busy != nil || p.total != n || p.wide == fits {
		// Searching on another search's claims would skip identifiers
		// silently.
		return nil, errors.New("core: Options.Live is not a fresh NewLive handle for the searched interval")
	}
	if p.workers <= 0 {
		p.workers = runtime.NumCPU()
	}
	if w := uint64(p.workers); p.chunk == 0 {
		p.chunk = defaultChunkSize
		if !p.wide && p.total/w < p.chunk {
			p.chunk = max((p.total+w-1)/w, minChunkSize)
		}
	}
	p.busy = make(map[int]uint64, p.workers)
	p.errCh = make(chan error, p.workers) // at most one send per goroutine
	return p, nil
}

// run searches the interval on the pool's goroutines, each with its own
// enumerator and walkFunc, and returns the first error any of them hit.
// Cancellation is not one: the goroutines stop claiming and the caller
// reads ctx.Err().
func (p *pool) run(ctx context.Context, newWalk func() walkFunc) error {
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enum := p.factory.NewEnumerator()
			walk := newWalk()
			for ctx.Err() == nil {
				off, n := p.claim(w, p.chunk)
				if n == 0 {
					return
				}
				at, _ := p.start.Add(keyspace.IDOf(off))
				if err := enum.Seek(at); err != nil {
					p.errCh <- err
					return
				}
				if !walk(enum, n) {
					return
				}
				if p.onChunk != nil {
					p.onChunk(p.finish(w))
				}
			}
		}()
	}
	wg.Wait()
	close(p.errCh)
	return <-p.errCh
}

// exhausted reports whether every identifier up to the search's end was
// claimed — and so, once run has returned without error, tested.
func (p *pool) exhausted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.stopped && !p.wide && p.claimed == p.limit
}
