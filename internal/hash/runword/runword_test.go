package runword

import "testing"

// word0 packs key's first four bytes as word 0, little- or big-endian.
func word0(key []byte, bigEndian bool) uint32 {
	var w uint32
	for p := 0; p < 4; p++ {
		shift := 8 * p
		if bigEndian {
			shift = 24 - 8*p
		}
		w |= uint32(key[p]) << shift
	}
	return w
}

// symbolSet returns size distinct symbols.
func symbolSet(size int) []byte {
	s := make([]byte, size)
	for i := range s {
		s[i] = byte(' ' + i)
	}
	return s
}

// TestCarryPastRunWraps pins what both forms do past the run's last
// value, where the searchers carry eagerly (after a piece's last key, and
// one carry ahead in the block form): the digits wrap to zero.
func TestCarryPastRunWraps(t *testing.T) {
	symbols := []byte("abc")
	last := []byte("ccccTAIL") // the last key of its run
	c := New(symbols, false, 2)
	c.Seek(last, 4, 1)
	c.Start(word0(last, false))
	if got, want := c.Carry(), word0([]byte("?aaa"), false)&^0xff; got != want {
		t.Errorf("Carry after the run's last key = %08x, want %08x (positions 1..3 wrapped)", got, want)
	}

	c.Seek(last, 4, 1)
	c.Start(word0(last, false))
	c.Block() // two lanes over three symbols: a one-position block
	high := func(key string) uint32 { return word0([]byte(key), false) &^ 0xff }
	if _, hi, next, lim := c.Window(); lim != 1 || hi != high("?ccc") || next != high("?aaa") {
		t.Errorf("Window at the run's last key = %08x, %08x, %d; want the high parts of ?ccc and ?aaa, 1", hi, next, lim)
	}
	c.Advance()
	if _, hi, next, _ := c.Window(); hi != high("?aaa") || next != high("?baa") {
		t.Errorf("Window past the run's end = %08x, %08x; want the high parts of ?aaa and ?baa", hi, next)
	}
}

// TestLowTable: the block's table holds, at every index up to P+lanes-2,
// the packed low digits of the index mod P, P being the smallest power of
// the charset size that reaches lanes, and is absent where four positions
// do not reach it.
func TestLowTable(t *testing.T) {
	for _, lanes := range []int{16, 32} {
		for _, size := range []int{1, 2, 3, 5, 6, 7, 16, 17, 18, 20, 31, 32, 33, 95, 256} {
			for _, bigEndian := range []bool{false, true} {
				c := New(symbolSet(size), bigEndian, lanes)
				low, period := c.low, c.period
				m, want := 1, size
				for want < lanes && m < 4 {
					m, want = m+1, want*size
				}
				if want < lanes {
					if low != nil {
						t.Errorf("%d symbols, %d lanes: a table of %d words, want none", size, lanes, len(low))
					}
					continue
				}
				if period != want || len(low) != period+lanes-1 {
					t.Fatalf("%d symbols, %d lanes: period %d and %d words, want %d and %d", size, lanes, period, len(low), want, want+lanes-1)
				}
				for i, got := range low {
					key := []byte{0, 0, 0, 0}
					for p, v := 0, i%period; p < m; p++ {
						key[p] = byte(' ' + v%size)
						v /= size
					}
					if w := word0(key, bigEndian); got != w {
						t.Fatalf("%d symbols, %d lanes: low[%d] = %08x, want %08x", size, lanes, i, got, w)
					}
				}
			}
		}
	}
}

// TestBlockWalkMatchesStep walks pieces of runs the way the searchers do
// — the block form L keys per call, carrying at most once a call, then
// Unblock and the digit-0 form for the tail — and compares every word 0
// with Step's byte-level count, from starts where the carry ripples
// through several positions and where the tail starts just past one.
func TestBlockWalkMatchesStep(t *testing.T) {
	for _, lanes := range []int{16, 32} {
		for _, size := range []int{3, 5, 6, 18, 20, 33} {
			symbols := symbolSet(size)
			for _, bigEndian := range []bool{false, true} {
				c := New(symbols, bigEndian, lanes)
				low, period := c.low, c.period
				span := size * size * size * size
				for _, start := range []int{0, 1, period - 1, period*size - 2, span - 3*lanes - 1, span / 2} {
					if low == nil || start < 0 || start >= span {
						continue
					}
					msg := []byte("....TAIL")
					for p, v := 0, start; p < 4; p++ {
						msg[p] = symbols[v%size]
						v /= size
					}
					n := min(span-start, 3*lanes+5)
					c.Seek(msg, 4, uint64(n))
					hi, d0 := c.Start(word0(msg, bigEndian))
					ref := New(symbols, bigEndian, lanes)
					ref.Seek(msg, 4, uint64(n))
					key := append([]byte(nil), msg...)
					check := func(i int, got uint32) {
						t.Helper()
						if want := word0(key, bigEndian); got != want {
							t.Fatalf("%d symbols, %d lanes, from %q: key %d (%q) has word 0 %08x, want %08x", size, lanes, msg, i, key, got, want)
						}
						ref.Step(key)
					}
					i := 0
					if n >= lanes {
						c.Block()
						for ; n-i >= lanes; i += lanes {
							win, high, next, lim := c.Window()
							for l, w := range win {
								if int32(l) < lim {
									check(i+l, w|high)
								} else {
									check(i+l, w|next)
								}
							}
							c.Advance()
						}
						hi, d0 = c.Unblock()
					}
					tab0 := c.Tab0()
					for ; i < n; i++ {
						check(i, hi|tab0[d0])
						if d0++; d0 == size {
							d0, hi = 0, c.Carry()
						}
					}
				}
			}
		}
	}
}
