package keyspace

import "fmt"

// Interval is a half-open range [Start, End) of dense key identifiers.
// Intervals are the unit of work the dispatcher of Section III scatters to
// computing nodes: only two integers travel on the wire, and the receiving
// node regenerates its sub-space locally via f(Start) and next. An
// Interval is a value; copies share nothing.
type Interval struct {
	Start ID
	End   ID
}

// NewInterval builds an interval from non-negative int64 bounds
// (convenience for tests and small spaces).
func NewInterval(start, end int64) Interval {
	return Interval{Start: IDOf(uint64(start)), End: IDOf(uint64(end))}
}

// Len returns the number of identifiers in the interval (zero when empty or
// inverted).
func (iv Interval) Len() ID {
	n, borrow := iv.End.Sub(iv.Start)
	if borrow {
		return ID{}
	}
	return n
}

// Len64 returns the interval length and true when it fits in a uint64.
func (iv Interval) Len64() (uint64, bool) {
	n := iv.Len()
	return n.Lo, n.IsUint64()
}

// Empty reports whether the interval contains no identifiers.
func (iv Interval) Empty() bool { return iv.Start.Cmp(iv.End) >= 0 }

// Take splits the interval into its first n identifiers and the rest.
// When n is at least the interval length, head is the whole interval and
// tail is empty.
func (iv Interval) Take(n uint64) (head, tail Interval) {
	mid, over := iv.Start.Add(IDOf(n))
	if over || mid.Cmp(iv.End) > 0 {
		mid = iv.End
	}
	return Interval{iv.Start, mid}, Interval{mid, iv.End}
}

// SplitN partitions the interval into n contiguous sub-intervals whose sizes
// differ by at most one. The concatenation of the results is exactly iv.
func (iv Interval) SplitN(n int) []Interval {
	if n <= 0 {
		return nil
	}
	q, r := iv.Len().QuoRem64(uint64(n))
	out := make([]Interval, 0, n)
	cur := iv.Start
	for i := uint64(0); i < uint64(n); i++ {
		size := q
		if i < r {
			size, _ = size.Add(IDOf(1))
		}
		next, _ := cur.Add(size)
		out = append(out, Interval{cur, next})
		cur = next
	}
	return out
}

// String formats the interval.
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v)", iv.Start, iv.End)
}
