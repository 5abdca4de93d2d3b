// Package runword counts packed word 0 through a prefix-major run: the
// consecutive keys of one length that share every byte from position k on
// (k ≤ 4), so that their packed single-block messages differ only in word
// 0. It is Section V's "next applied to the packed form", shared by the
// MD5 and SHA1 run searchers, which differ only in where byte p of the key
// sits in the word (little-endian for MD5, big-endian for SHA1).
package runword

import (
	"bytes"
	"fmt"
)

// Counter enumerates word 0 as a digit counter over per-position symbol
// tables, first key byte fastest, in two forms. In the digit-0 form a
// searcher keeps digit 0 and the high part (positions 1..k-1) in locals
// and indexes Tab0 inline; Carry is called only when digit 0 wraps, once
// every len(symbols) keys. The block form feeds a vector kernel lanes keys
// per call (Window, then Advance): the low block — positions 0..m-1, m
// the fewest positions with P = len(symbols)^m ≥ lanes — is one value
// pos < P that indexes a table of P words, and the high part (positions
// m..k-1) carries at most once per call.
//
// A Counter is not safe for concurrent use; each run searcher owns one.
type Counter struct {
	symbols []byte
	shift   [4]uint     // bit offset of key byte p within word 0
	tab     [4][]uint32 // tab[p][d]: symbol d placed at byte p of word 0
	low     []uint32    // low[pos]: positions 0..m-1 of low value pos mod period; nil without a block
	m       int         // positions in the low block
	period  int         // len(symbols)^m
	lanes   int         // keys per block-form call
	d       [4]int      // digits of the run's positions (the searcher's loop owns d[0]; in the block form pos stands for d[:m], and d[m:] are next's)
	pos     int         // block form: the low value of the next call's first key
	high    uint32      // block form: its high part
	next    uint32      // block form: the high part one carry on
	k       int         // positions the counter owns in the current run
	base    uint32      // word 0's bits at positions ≥ k (key bytes, or the 0x80 pad)
}

// New returns a counter over the given symbols, in digit order (at most
// 256, no duplicates — a keyspace.Charset's), whose block form serves
// lanes keys per vector call. bigEndian places key byte p at bits 24-8p
// of word 0 (SHA1's packing) instead of 8p (MD5's). symbols is not copied
// and must not change.
func New(symbols []byte, bigEndian bool, lanes int) Counter {
	c := Counter{symbols: symbols, lanes: lanes}
	words := make([]uint32, len(c.tab)*len(symbols))
	for p := range c.tab {
		c.shift[p] = uint(8 * p)
		if bigEndian {
			c.shift[p] = uint(24 - 8*p)
		}
		c.tab[p] = words[p*len(symbols) : (p+1)*len(symbols)]
		for d, s := range symbols {
			c.tab[p][d] = uint32(s) << c.shift[p]
		}
	}
	c.m, c.period = 1, len(symbols)
	for c.period < lanes && c.m < len(c.tab) {
		c.m++
		c.period *= len(symbols)
	}
	if c.period < lanes {
		return c // no run of k ≤ 4 positions holds lanes keys
	}
	// Position p's digit d spans entries [d·n, (d+1)·n), n = len(symbols)^p,
	// each one the entry below n with symbol d put at byte p; the lanes-1
	// entries past the period repeat its start, so the window of any lanes
	// consecutive values from a pos < period is contiguous.
	c.low = make([]uint32, c.period+lanes-1)
	for p, n := 0, 1; p < c.m; p, n = p+1, n*len(symbols) {
		for d := len(symbols) - 1; d >= 0; d-- { // digit 0 last: it rewrites the entries the others read
			for j := range n {
				c.low[d*n+j] = c.low[j] | c.tab[p][d]
			}
		}
	}
	copy(c.low[c.period:], c.low)
	return c
}

// Seek positions the counter at msg, the first of n keys of one run piece:
// msg's first k bytes are the counter's digits. It panics unless k ≤
// min(4, len(msg)), msg[:k] are symbols and the n keys stay in the run,
// that is, n does not pass the last value of those k digits.
func (c *Counter) Seek(msg []byte, k int, n uint64) {
	if k < 0 || k > 4 || k > len(msg) {
		panic(fmt.Sprintf("runword: run of %d bytes in a %d-byte message", k, len(msg)))
	}
	span, pos := uint64(1), uint64(0)
	for i := 0; i < k; i++ {
		d := bytes.IndexByte(c.symbols, msg[i])
		if d < 0 {
			panic(fmt.Sprintf("runword: run byte %q is not a symbol", msg[i]))
		}
		c.d[i] = d
		pos += uint64(d) * span
		span *= uint64(len(c.symbols))
	}
	if n > span-pos {
		panic(fmt.Sprintf("runword: %d keys from digit %d of a %d-byte run over %d symbols", n, pos, k, len(c.symbols)))
	}
	c.k = k
}

// Start takes word 0 of msg's packed block and returns the digit-0 form's
// starting state: the high part (word 0 without byte 0) and digit 0. Word
// 0 of the current key is then hi | Tab0()[d0]. It requires k ≥ 1.
func (c *Counter) Start(w0 uint32) (hi uint32, d0 int) {
	c.base = w0
	for p := 0; p < c.k; p++ {
		c.base &^= 0xff << c.shift[p]
	}
	return c.word(&c.d, 1), c.d[0]
}

// Tab0 returns the symbol table of key byte 0.
func (c *Counter) Tab0() []uint32 { return c.tab[0] }

// Carry propagates digit 0's wrap into positions 1..k-1 and returns the
// new high part. Past the run's last value the digits wrap to zero: the
// searchers carry eagerly, after a piece's last key too, and never call
// Key on that value.
func (c *Counter) Carry() uint32 {
	c.bump(&c.d, 1)
	return c.word(&c.d, 1)
}

// Block switches to the block form at the current key, after Start. It
// panics unless the run has the m positions of the low block, as any run
// of at least lanes keys has.
func (c *Counter) Block() {
	if c.low == nil || c.k < c.m {
		panic(fmt.Sprintf("runword: a %d-byte run has no %d-byte low block", c.k, c.m))
	}
	c.pos = 0
	for p := c.m - 1; p >= 0; p-- {
		c.pos = c.pos*len(c.symbols) + c.d[p]
	}
	c.high = c.word(&c.d, c.m)
	c.next = c.high
	c.carryBlock()
}

// Window returns what a vector kernel generates the next lanes words 0
// from: word 0 of key l is win[l] | hi for l < lim, where the low table
// wraps, and win[l] | next from there on. hi and next are the high parts,
// word 0's bits at positions m..k-1 over those the run keeps fixed.
func (c *Counter) Window() (win []uint32, hi, next uint32, lim int32) {
	return c.low[c.pos : c.pos+c.lanes], c.high, c.next, int32(c.period - c.pos)
}

// Advance moves the block form on by lanes keys, carrying into the high
// part where the low table wraps: at most once, since P ≥ lanes.
func (c *Counter) Advance() {
	if c.pos += c.lanes; c.pos >= c.period {
		c.pos -= c.period
		c.high = c.next
		c.carryBlock()
	}
}

// carryBlock moves next, and the digits d[m:] it is made of, on by one
// carry; past the run's last value they wrap to zero, as Carry's do. It
// rewrites only the bytes whose digits change, since a searcher with few
// more symbols than lanes carries on almost every call.
func (c *Counter) carryBlock() {
	for p := c.m; p < c.k; p++ {
		d := c.d[p] + 1
		if d == len(c.symbols) {
			d = 0
		}
		c.d[p] = d
		c.next = c.next&^(0xff<<c.shift[p]) | c.tab[p][d]
		if d != 0 {
			return
		}
	}
}

// Unblock returns from the block form to the digit-0 form at the current
// key: the high part without byte 0, and digit 0.
func (c *Counter) Unblock() (hi uint32, d0 int) {
	for p := c.m; p < c.k; p++ { // d[m:] back from next's digits to high's
		if c.d[p] > 0 {
			c.d[p]--
			break
		}
		c.d[p] = len(c.symbols) - 1
	}
	for p, v := 0, c.pos; p < c.m; p++ {
		c.d[p] = v % len(c.symbols)
		v /= len(c.symbols)
	}
	return c.word(&c.d, 1), c.d[0]
}

// bump adds one to the number whose digits are d[from..k-1], first
// position fastest, wrapping to zero past its last value.
func (c *Counter) bump(d *[4]int, from int) {
	for p := from; p < c.k; p++ {
		if d[p]++; d[p] < len(c.symbols) {
			return
		}
		d[p] = 0
	}
}

// word returns word 0's bits at positions from..k-1 for digits d, over
// the bits the run keeps fixed.
func (c *Counter) word(d *[4]int, from int) uint32 {
	w := c.base
	for p := from; p < c.k; p++ {
		w |= c.tab[p][d[p]]
	}
	return w
}

// Key copies msg with its first k bytes replaced by word 0's.
func (c *Counter) Key(msg []byte, w0 uint32) []byte {
	out := append([]byte(nil), msg...)
	for p := 0; p < c.k; p++ {
		out[p] = byte(w0 >> c.shift[p])
	}
	return out
}

// Step advances key, a copy of the run's current key, to the next key of
// the run in place: the byte-level counter for messages past one block,
// which have no packed word 0.
func (c *Counter) Step(key []byte) {
	for p := 0; p < c.k; p++ {
		if c.d[p]++; c.d[p] < len(c.symbols) {
			key[p] = c.symbols[c.d[p]]
			return
		}
		c.d[p] = 0
		key[p] = c.symbols[0]
	}
}
