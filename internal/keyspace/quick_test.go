package keyspace

import (
	"testing"
	"testing/quick"
)

// Property: f is injective — distinct ids map to distinct keys — and ID is
// its exact inverse, for random charsets/orders/ids.
func TestQuickBijection(t *testing.T) {
	charsets := []*Charset{abc, Lower, Digits, Alnum}
	f := func(csIdx uint8, orderBit bool, rawA, rawB uint32) bool {
		cs := charsets[int(csIdx)%len(charsets)]
		order := SuffixMajor
		if orderBit {
			order = PrefixMajor
		}
		s := MustNew(cs, 0, 6, order)
		size, _ := s.Size64()
		a := uint64(rawA) % size
		b := uint64(rawB) % size
		ka := s.Key64(a)
		kb := s.Key64(b)
		if (a == b) != (string(ka) == string(kb)) {
			return false
		}
		ia, err := s.ID(ka)
		return err == nil && ia == IDOf(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: next(f(i)) == f(i+1) starting at random positions.
func TestQuickSuccessor(t *testing.T) {
	f := func(orderBit bool, rawStart uint32, rawSteps uint8) bool {
		order := SuffixMajor
		if orderBit {
			order = PrefixMajor
		}
		s := MustNew(Lower, 1, 5, order)
		size, _ := s.Size64()
		start := uint64(rawStart) % size
		steps := uint64(rawSteps)
		if start+steps >= size {
			steps = size - 1 - start
		}
		c := NewCursor64(s, start)
		for k := uint64(1); k <= steps; k++ {
			if !c.Next() {
				return false
			}
			want := s.Key64(start + k)
			if string(c.Key()) != string(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: skipping n keys by f — the cursor re-derived from id+n —
// lands on the same key as n Next calls; past the end, Next stops on the
// last key, exhausted.
func TestQuickSkipEqualsNext(t *testing.T) {
	f := func(rawStart uint16, rawSkip uint8) bool {
		s := MustNew(abc, 0, 6, SuffixMajor)
		size, _ := s.Size64()
		start := uint64(rawStart) % size
		skip := uint64(rawSkip)
		b := NewCursor64(s, start)
		for i := uint64(0); i < skip; i++ {
			b.Next()
		}
		a := NewCursor64(s, min(start+skip, size-1))
		return string(a.Key()) == string(b.Key()) && b.Exhausted() == (start+skip >= size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Run's length and NextRun agree with repeated Next. From a
// random key — or one of the space's last keys — every key the run covers
// differs from the first only in its first k bytes, the key after it does
// not, and NextRun lands where the n-th Next lands (exhausted alike at the
// end of the space). Runs longer than two windows of W keys are stepped
// through both ends: the first W keys and the last W up to the boundary.
func TestQuickRunAgreesWithNext(t *testing.T) {
	charsets := []*Charset{MustCharset("q"), MustCharset("01"), MustCharset("abcdefghijklmnopqrst"), Printable}
	const W = 1 << 10
	f := func(csIdx, rawMin, rawMax uint8, suffixMajor, atEnd bool, rawID uint64) bool {
		cs := charsets[int(csIdx)%len(charsets)]
		minLen := int(rawMin) % 4
		maxLen := max(1, minLen+int(rawMax)%(7-minLen))
		order := PrefixMajor
		if suffixMajor {
			order = SuffixMajor
		}
		s := MustNew(cs, minLen, maxLen, order)
		size, _ := s.Size64()
		id := rawID % size
		if atEnd {
			id = size - 1 - rawID%min(size, 3)
		}
		c := NewCursor64(s, id)
		first := string(c.Key())
		k, n := c.Run()
		switch {
		case order == SuffixMajor && (k != 0 || n != 1),
			order == PrefixMajor && k != min(4, len(first)),
			n == 0 || id+n > size:
			t.Logf("%v from %q: Run() = %d, %d", s, first, k, n)
			return false
		}
		inRun := func(key []byte) bool { return len(key) == len(first) && string(key[k:]) == first[k:] }
		// step walks Next from id0 for steps keys, each in the run, and
		// returns the cursor on the key after them.
		step := func(id0, steps uint64) (*Cursor, bool) {
			ref := NewCursor64(s, id0)
			for j := uint64(0); j < steps; j++ {
				if !inRun(ref.Key()) {
					t.Logf("%v: key %q (id %d) left the run of %q (k=%d, n=%d)", s, ref.Key(), id0+j, first, k, n)
					return nil, false
				}
				ok := ref.Next()
				if j+1 < steps && !ok {
					return nil, false
				}
			}
			return ref, true
		}
		if n > 2*W {
			if _, ok := step(id, W); !ok {
				return false
			}
		}
		ref, ok := step(id+n-min(n, 2*W), min(n, 2*W))
		if !ok {
			return false
		}
		end := id+n == size
		if ref.Exhausted() != end || (!end && inRun(ref.Key())) {
			t.Logf("%v: after the run of %q (k=%d, n=%d) Next is on %q, exhausted %v", s, first, k, n, ref.Key(), ref.Exhausted())
			return false
		}
		if c.NextRun() != !end || string(c.Key()) != string(ref.Key()) || c.Exhausted() != end {
			t.Logf("%v: NextRun from %q went to %q (exhausted %v), Next to %q", s, first, c.Key(), c.Exhausted(), ref.Key())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFOfID(b *testing.B) {
	s := MustNew(Alnum, 8, 8, PrefixMajor)
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = s.AppendKey64(buf[:0], uint64(i)%1_000_000)
	}
}

func BenchmarkNext(b *testing.B) {
	s := MustNew(Alnum, 8, 8, PrefixMajor)
	c := NewCursor64(s, 0)
	for i := 0; i < b.N; i++ {
		if !c.Next() {
			c = NewCursor64(s, 0)
		}
	}
}
