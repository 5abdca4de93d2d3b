package keyspace

import "testing"

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(10, 25)
	if iv.Len() != IDOf(15) {
		t.Errorf("Len = %v, want 15", iv.Len())
	}
	if n, ok := iv.Len64(); !ok || n != 15 {
		t.Errorf("Len64 = %d, %v", n, ok)
	}
	if iv.Empty() {
		t.Error("non-empty interval reported empty")
	}
	empty := NewInterval(5, 5)
	if !empty.Empty() || empty.Len() != (ID{}) {
		t.Error("empty interval misreported")
	}
	inverted := NewInterval(9, 3)
	if inverted.Len() != (ID{}) {
		t.Errorf("inverted Len = %v, want 0", inverted.Len())
	}
	wide := Interval{End: ID{Hi: 1}}
	if n, ok := wide.Len64(); ok {
		t.Errorf("Len64 of a 2^64 interval = %d, true", n)
	}
}

func TestIntervalTake(t *testing.T) {
	iv := NewInterval(0, 10)
	head, tail := iv.Take(4)
	if head != NewInterval(0, 4) || tail != NewInterval(4, 10) {
		t.Errorf("head = %v, tail = %v", head, tail)
	}
	head, tail = iv.Take(99)
	if head != iv || !tail.Empty() {
		t.Errorf("overshoot take: head=%v tail=%v", head, tail)
	}
	head, tail = iv.Take(0)
	if !head.Empty() || tail != iv {
		t.Errorf("zero take: head=%v tail=%v", head, tail)
	}
	// A take that would carry past 2^128 clamps to the end.
	top := Interval{Start: ID{^uint64(0), ^uint64(0) - 5}, End: ID{^uint64(0), ^uint64(0)}}
	if head, tail := top.Take(^uint64(0)); head != top || !tail.Empty() {
		t.Errorf("take at the top: head=%v tail=%v", head, tail)
	}
}

// TestIntervalValueOps pins the interval as a value: taking a lease off
// an interval and measuring it allocate nothing.
func TestIntervalValueOps(t *testing.T) {
	iv := Interval{Start: ID{Hi: 3, Lo: 7}, End: ID{Hi: 9}}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		head, tail := iv.Take(1 << 14)
		sink += head.Len().Lo + tail.Len().Lo
	}); n != 0 {
		t.Errorf("Take and Len allocate %v times", n)
	}
	_ = sink
}

func TestSplitN(t *testing.T) {
	iv := NewInterval(0, 10)
	parts := iv.SplitN(3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	wantLens := []uint64{4, 3, 3}
	cur := uint64(0)
	for i, p := range parts {
		if p.Start != IDOf(cur) {
			t.Errorf("part %d starts at %v, want %d", i, p.Start, cur)
		}
		if n, _ := p.Len64(); n != wantLens[i] {
			t.Errorf("part %d len = %v, want %d", i, p.Len(), wantLens[i])
		}
		cur = p.End.Uint64()
	}
	if cur != 10 {
		t.Errorf("coverage ends at %d", cur)
	}
	if got := iv.SplitN(0); got != nil {
		t.Error("SplitN(0) should be nil")
	}
}
