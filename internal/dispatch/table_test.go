package dispatch

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"keysearch/internal/keyspace"
)

// tableOp is one recorded Table operation; args it does not use are 0.
type tableOp struct {
	kind     int // 0 issue, 1 settle, 2 requeue, 3 split, 4 merge, 5 move
	id, b, c uint64
}

// apply runs the operation, returning the settled interval (settle
// only) and whether the table accepted it.
func (op tableOp) apply(tb *Table[struct{}]) (settled keyspace.Interval, ok bool) {
	switch op.kind {
	case 0:
		_, ok = tb.Issue(op.id, op.b)
	case 1:
		var e *Entry[struct{}]
		if e, ok = tb.Settle(op.id); ok {
			settled = e.Interval
		}
	case 2:
		_, ok = tb.Requeue(op.id)
	case 3:
		_, ok = tb.Split(op.id, op.b, op.c)
	case 4:
		ok = tb.Merge(op.id, op.b)
	case 5:
		ok = tb.MoveBoundary(op.id, op.b, op.c)
	}
	return settled, ok
}

type span struct{ start, end uint64 }

func spanOf(iv keyspace.Interval) span { return span{iv.Start.Uint64(), iv.End.Uint64()} }

// coalesce sorts spans and joins the ones that touch; it reports false
// if any two overlap.
func coalesce(in []span) ([]span, bool) {
	spans := append([]span(nil), in...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var out []span
	for _, s := range spans {
		switch {
		case len(out) > 0 && s.start < out[len(out)-1].end:
			return nil, false
		case len(out) > 0 && s.start == out[len(out)-1].end:
			out[len(out)-1].end = s.end
		default:
			out = append(out, s)
		}
	}
	return out, true
}

// TestQuickTableTilesExactly drives random issue / settle / requeue /
// split / merge / move-boundary sequences over a seeded interval set.
// After every step the settled intervals plus Remaining() must tile the
// original set with no gap and no overlap; a lease leaves the table at
// most once; split, merge and move are accepted exactly when the table's
// own view says the halves are live and adjacent; and Remaining() is a
// pure function of the operation sequence — replaying it into a fresh
// table yields the same slice in the same order.
func TestQuickTableTilesExactly(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var seedIvs []keyspace.Interval
		var original []span
		for at, k := uint64(0), 1+rng.Intn(4); k > 0; k-- {
			at += uint64(rng.Intn(3)) * 50 // some intervals touch, some leave a hole
			n := uint64(1 + rng.Intn(4000))
			seedIvs = append(seedIvs, keyspace.NewInterval(int64(at), int64(at+n)))
			original = append(original, span{at, at + n})
			at += n
		}
		want, _ := coalesce(original)

		tb := NewTable[struct{}](seedIvs...)
		var ops []tableOp
		var settled []span
		nextID := uint64(1)
		anyID := func() uint64 { return 1 + uint64(rng.Int63n(int64(nextID))) } // live, gone, or never issued
		live := func(id uint64) *Entry[struct{}] { e, _ := tb.Get(id); return e }
		touching := func(a, b uint64) bool {
			ea, eb := live(a), live(b)
			return ea != nil && eb != nil && ea.Interval.End.Cmp(eb.Interval.Start) == 0
		}

		for step := 0; step < 300; step++ {
			op := tableOp{kind: rng.Intn(6), id: anyID()}
			var expect bool
			switch op.kind {
			case 0:
				op.id, op.b = nextID, uint64(rng.Intn(600))
				if rng.Intn(8) == 0 {
					op.id = anyID() // maybe an ID that is still live
				}
				expect = tb.Leasable() && op.b > 0 && live(op.id) == nil
			case 1, 2:
				expect = live(op.id) != nil
			case 3:
				op.b, op.c = uint64(rng.Intn(400)), nextID
				e := live(op.id)
				expect = e != nil && op.b > 0 && op.b < e.N
			case 4, 5:
				op.b = anyID()
				if rng.Intn(2) == 0 {
					op.b = op.id + 1 // often the half a split just made
				}
				op.c = uint64(rng.Intn(800))
				expect = touching(op.id, op.b)
				if op.kind == 5 && expect {
					expect = op.c > 0 && op.c < live(op.id).N+live(op.b).N
				}
			}
			iv, ok := op.apply(tb)
			if ok != expect {
				t.Logf("seed %d step %d: op %+v accepted=%v, want %v", seed, step, op, ok, expect)
				return false
			}
			if ok && (op.kind == 0 || op.kind == 3) {
				nextID++
			}
			if ok && op.kind == 1 {
				settled = append(settled, spanOf(iv))
			}
			ops = append(ops, op)

			// A lease that just left the table cannot leave it again.
			gone := op.id
			if op.kind == 4 {
				gone = op.b
			}
			if ok && (op.kind == 1 || op.kind == 2 || op.kind == 4) {
				_, settledAgain := tb.Settle(gone)
				_, requeuedAgain := tb.Requeue(gone)
				if settledAgain || requeuedAgain {
					t.Logf("seed %d step %d: lease %d disposed of a second time after %+v", seed, step, gone, op)
					return false
				}
			}

			all := append([]span(nil), settled...)
			for _, r := range tb.Remaining() {
				all = append(all, spanOf(r))
			}
			got, disjoint := coalesce(all)
			if !disjoint || len(got) != len(want) {
				t.Logf("seed %d step %d after %+v: settled+remaining = %v (disjoint %v), want %v", seed, step, op, got, disjoint, want)
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					t.Logf("seed %d step %d after %+v: settled+remaining = %v, want %v", seed, step, op, got, want)
					return false
				}
			}
		}

		replay := NewTable[struct{}](seedIvs...)
		for _, op := range ops {
			op.apply(replay)
		}
		a, b := tb.Remaining(), replay.Remaining()
		if len(a) != len(b) {
			t.Logf("seed %d: replay left %d remaining intervals, the run %d", seed, len(b), len(a))
			return false
		}
		for i := range a {
			if spanOf(a[i]) != spanOf(b[i]) {
				t.Logf("seed %d: Remaining()[%d] = %v on replay, %v in the run", seed, i, b[i], a[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTableValueIntervals pins the interval as a value in the lease
// path: an Issue → Settle cycle allocates the entry and nothing else, and
// summing a checkpoint's remaining set allocates nothing.
func TestTableValueIntervals(t *testing.T) {
	start, _ := keyspace.ParseID("170141183460469231731687303715884105728") // 2^127
	end, _ := start.Add(keyspace.IDOf(1 << 40))
	tbl := NewTable[struct{}](keyspace.Interval{Start: start, End: end})
	var id uint64
	if n := testing.AllocsPerRun(1000, func() {
		id++
		if _, ok := tbl.Issue(id, 1<<14); !ok {
			t.Fatal("issue refused")
		}
		if _, ok := tbl.Settle(id); !ok {
			t.Fatal("settle refused")
		}
	}); n != 1 {
		t.Errorf("Issue → Settle allocates %v times, want 1 (the entry)", n)
	}
	cp := NewCheckpoint(tbl.Remaining(), 0, nil)
	cp.Remaining = append(cp.Remaining, keyspace.NewInterval(0, 1000))
	if n := testing.AllocsPerRun(100, func() { _ = cp.RemainingKeys() }); n != 0 {
		t.Errorf("RemainingKeys allocates %v times", n)
	}
}
