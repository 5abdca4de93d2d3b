package dispatch

import (
	"cmp"
	"slices"

	"keysearch/internal/keyspace"
)

// Table is the lease table of the coarse grain (§III): the FIFO pool of
// identifier intervals still to be handed out plus the set of live
// leases, so "which identifiers are unsearched, leased or settled" has
// one definition under both the Dispatcher and the job service
// (internal/jobs). Every identifier the table was built with is, at all
// times, in exactly one place: the pool, one live lease, or settled.
//
// A lease leaves the table exactly once — by Settle (searched), Requeue
// (back to the pool tail, untested) or Merge (absorbed by the lease it
// was split from); any further disposition of the same ID is refused
// with ok = false. That is the exactly-once rule, enforced here rather
// than by each caller's bookkeeping.
//
// P is the caller's per-lease state (the service keeps its expiry timer
// and steal flags there). The table has no lock: it blocks on nothing,
// and both callers already serialize access under their own mutex.
type Table[P any] struct {
	pool []keyspace.Interval
	live map[uint64]*Entry[P]
}

// Entry is one live lease. Interval and N (its length) are the table's:
// Split, Merge and MoveBoundary change them, callers only read. State
// is the caller's.
type Entry[P any] struct {
	ID       uint64
	Interval keyspace.Interval
	N        uint64
	State    P
}

// NewTable builds a table whose pool holds the given intervals, in
// order. Callers are responsible for them being disjoint; the table
// hands out exactly what it was given, once. Empty intervals are
// dropped.
func NewTable[P any](ivs ...keyspace.Interval) *Table[P] {
	t := &Table[P]{live: make(map[uint64]*Entry[P])}
	for _, iv := range ivs {
		if !iv.Empty() {
			t.pool = append(t.pool, iv)
		}
	}
	return t
}

// Issue claims up to n identifiers from the head of the pool as a live
// lease under id. It refuses an empty pool, n = 0, and an id that is
// already live.
func (t *Table[P]) Issue(id, n uint64) (*Entry[P], bool) {
	if len(t.pool) == 0 || n == 0 || t.live[id] != nil {
		return nil, false
	}
	head, tail := t.pool[0].Take(n)
	if tail.Empty() {
		t.pool = t.pool[1:]
	} else {
		t.pool[0] = tail
	}
	got, _ := head.Len64()
	e := &Entry[P]{ID: id, Interval: head, N: got}
	t.live[id] = e
	return e, true
}

// Get returns the live lease under id.
func (t *Table[P]) Get(id uint64) (*Entry[P], bool) {
	e, ok := t.live[id]
	return e, ok
}

// Settle removes a lease whose interval has been searched.
func (t *Table[P]) Settle(id uint64) (*Entry[P], bool) {
	e, ok := t.live[id]
	delete(t.live, id)
	return e, ok
}

// Requeue removes a lease whose interval was not searched and returns
// the interval to the tail of the pool.
func (t *Table[P]) Requeue(id uint64) (*Entry[P], bool) {
	e, ok := t.Settle(id)
	if ok {
		t.pool = append(t.pool, e.Interval)
	}
	return e, ok
}

// Split carves the tail beyond the first keep identifiers off lease id
// into a new live lease under newID (0 < keep < N, newID not live). The
// two leases tile the original interval.
func (t *Table[P]) Split(id, keep, newID uint64) (*Entry[P], bool) {
	e, ok := t.live[id]
	if !ok || keep == 0 || keep >= e.N || t.live[newID] != nil {
		return nil, false
	}
	tail := &Entry[P]{ID: newID, Interval: keyspace.Interval{End: e.Interval.End}}
	t.live[newID] = tail
	setBoundary(e, tail, keep)
	return tail, true
}

// Merge undoes a Split: lease id absorbs the adjacent lease tailID,
// which leaves the table.
func (t *Table[P]) Merge(id, tailID uint64) bool {
	e, tail, ok := t.adjacent(id, tailID)
	if !ok {
		return false
	}
	delete(t.live, tailID)
	e.Interval = keyspace.Interval{Start: e.Interval.Start, End: tail.Interval.End}
	e.N += tail.N
	return true
}

// MoveBoundary moves the boundary between lease id and the adjacent
// lease tailID so that id holds its first cut identifiers and tailID
// the rest; both must stay non-empty.
func (t *Table[P]) MoveBoundary(id, tailID, cut uint64) bool {
	e, tail, ok := t.adjacent(id, tailID)
	if !ok || cut == 0 || cut >= e.N+tail.N {
		return false
	}
	setBoundary(e, tail, cut)
	return true
}

// adjacent returns two live leases when tailID starts where id ends.
func (t *Table[P]) adjacent(id, tailID uint64) (e, tail *Entry[P], ok bool) {
	e, tail = t.live[id], t.live[tailID]
	if e == nil || tail == nil || e.Interval.End.Cmp(tail.Interval.Start) != 0 {
		return nil, nil, false
	}
	return e, tail, true
}

// setBoundary makes e end, and the adjacent tail start, cut identifiers
// past e's start.
func setBoundary[P any](e, tail *Entry[P], cut uint64) {
	whole := keyspace.Interval{Start: e.Interval.Start, End: tail.Interval.End}
	e.Interval, tail.Interval = whole.Take(cut)
	e.N, tail.N = cut, e.N+tail.N-cut
}

// Leasable reports whether the pool holds anything to issue.
func (t *Table[P]) Leasable() bool { return len(t.pool) > 0 }

// Len returns the number of live leases.
func (t *Table[P]) Len() int { return len(t.live) }

// Exhausted reports whether nothing is pooled and nothing is live:
// every identifier has been settled.
func (t *Table[P]) Exhausted() bool { return len(t.pool) == 0 && len(t.live) == 0 }

// Live returns the live leases by ascending ID.
func (t *Table[P]) Live() []*Entry[P] {
	out := make([]*Entry[P], 0, len(t.live))
	for _, e := range t.live {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b *Entry[P]) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Remaining lists every identifier not yet settled: the pool in order,
// then the live leases by ascending ID. The order is a pure function of
// the operations applied — never of map iteration — so a checkpoint
// built from it is reproducible byte for byte.
func (t *Table[P]) Remaining() []keyspace.Interval {
	out := make([]keyspace.Interval, 0, len(t.pool)+len(t.live))
	out = append(out, t.pool...)
	for _, e := range t.Live() {
		out = append(out, e.Interval)
	}
	return out
}
