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
// tables, first key byte fastest. A searcher keeps digit 0 and the high
// part in locals and indexes Tab0 inline; Carry is called only when digit 0
// wraps, once every len(symbols) keys.
//
// A Counter is not safe for concurrent use; each run searcher owns one.
type Counter struct {
	symbols []byte
	shift   [4]uint     // bit offset of key byte p within word 0
	tab     [4][]uint32 // tab[p][d]: symbol d placed at byte p of word 0
	d       [4]int      // digits of the run's positions (d[0] lives in the searcher's loop)
	k       int         // positions the counter owns in the current run
	base    uint32      // word 0's bits at positions ≥ k (key bytes, or the 0x80 pad)
}

// New returns a counter over the given symbols, in digit order (at most
// 256, no duplicates — a keyspace.Charset's). bigEndian places key byte p
// at bits 24-8p of word 0 (SHA1's packing) instead of 8p (MD5's). symbols
// is not copied and must not change.
func New(symbols []byte, bigEndian bool) Counter {
	c := Counter{symbols: symbols}
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

// Start takes word 0 of msg's packed block and returns the loop's starting
// state: the high part (word 0 without byte 0) and digit 0. Word 0 of the
// current key is then hi | Tab0()[d0]. It requires k ≥ 1.
func (c *Counter) Start(w0 uint32) (hi uint32, d0 int) {
	c.base = w0
	for p := 0; p < c.k; p++ {
		c.base &^= 0xff << c.shift[p]
	}
	return c.high(), c.d[0]
}

// Tab0 returns the symbol table of key byte 0.
func (c *Counter) Tab0() []uint32 { return c.tab[0] }

// high returns word 0 without its byte 0: the digits of positions 1..k-1
// over the bits the run keeps fixed.
func (c *Counter) high() uint32 {
	w := c.base
	for p := 1; p < c.k; p++ {
		w |= c.tab[p][c.d[p]]
	}
	return w
}

// Carry propagates digit 0's wrap into positions 1..k-1 and returns the
// new high part. It never carries out of position k-1: Seek's caller keeps
// n inside the run.
func (c *Counter) Carry() uint32 {
	for p := 1; p < c.k; p++ {
		if c.d[p]++; c.d[p] < len(c.symbols) {
			break
		}
		c.d[p] = 0
	}
	return c.high()
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
